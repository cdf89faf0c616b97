package experiments

import (
	"repro/internal/cactimodel"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// E13 reproduces Section 7.1: the 512Kbit TAGE-LSC with 4-way interleaved
// single-ported tables (both global and local components). Paper: 569
// MPPKI vs 562 flat — a loss of a few MPPKI (3 local training + 2 TAGE
// interleaving + 2 size trimming) — and CACTI ratios of ~3.3x area and
// ~2x power.
func E13(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E13", Title: "Interleaved TAGE-LSC (§7.1)"}
	const flat, inter = "tage-lsc", "tage-lsc-banked"
	s := r.run(cfg.suiteMatrix(resolve(flat, inter), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	f, i := s.mppki(flat, predictor.ScenarioA), s.mppki(inter, predictor.ScenarioA)
	r.row("TAGE-LSC flat MPPKI", "562", "%.0f", f)
	r.row("TAGE-LSC interleaved MPPKI", "569", "%.0f", i)
	r.row("interleaving cost", "+1.2%", "%s", pct(i-f, f))
	r.check("interleaving cost small (<5%)", i <= f*1.05 && i >= f*0.98)
	c := cactimodel.Compare(512 * 1024)
	r.row("area ratio 3-port/banked", "~3.3x", "%.2fx", c.AreaRatioMonoVsBanked)
	r.row("energy ratio 3-port/banked", "~2x", "%.2fx", c.EnergyRatioMonoVsBanked)
	r.check("area saving in band", c.AreaRatioMonoVsBanked > 2.9 && c.AreaRatioMonoVsBanked < 3.7)
	return r
}

// E14 reproduces Section 7.2: eliminating the retire-time read on correct
// predictions (scenario [C]) on the interleaved TAGE-LSC costs a few
// MPPKI (paper: 575, +2 on the TAGE side and +4 on the local side), while
// eliminating it completely (scenario [B]) costs much more (paper: 599,
// "not recommended").
func E14(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E14", Title: "Eliminating retire reads on TAGE-LSC (§7.2)"}
	const banked = "tage-lsc-banked"
	s := r.run(cfg.suiteMatrix(resolve(banked),
		predictor.ScenarioA, predictor.ScenarioC, predictor.ScenarioB), cfg)
	if s == nil {
		return r
	}
	a := s.mppki(banked, predictor.ScenarioA)
	c := s.mppki(banked, predictor.ScenarioC)
	b := s.mppki(banked, predictor.ScenarioB)
	r.row("interleaved TAGE-LSC [A] MPPKI", "569", "%.0f", a)
	r.row("interleaved TAGE-LSC [C] MPPKI", "575", "%.0f", c)
	r.row("interleaved TAGE-LSC [B] MPPKI", "599", "%.0f", b)
	r.row("[C] over [A]", "+1.1%", "%s", pct(c-a, a))
	r.row("[B] over [A]", "+5.3%", "%s", pct(b-a, a))
	r.check("[C] cost small", c >= a*0.98 && c <= a*1.06)
	r.check("[B] clearly worse than [C]", b > c)
	return r
}

// E15 reproduces the Section 2.2 benchmark-set characterisation: the 7
// hard traces carry the large majority of the suite's mispredictions on
// the reference predictor, each with a far higher misprediction rate than
// any of the other 33.
func E15(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E15", Title: "Benchmark set characterisation (§2.2)"}
	const model = "composed:tage+ium+loop"
	s := r.run(cfg.suiteMatrix(resolve(model), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	var hardMisp, totalMisp uint64
	var worstEasy, bestHard float64
	bestHard = 1e18
	for _, res := range s.of(model, predictor.ScenarioA) {
		totalMisp += res.Mispredicts
		if workload.HardNames[res.Trace] {
			hardMisp += res.Mispredicts
			if res.MPKI < bestHard {
				bestHard = res.MPKI
			}
		} else if res.MPKI > worstEasy {
			worstEasy = res.MPKI
		}
	}
	share := float64(hardMisp) / float64(totalMisp)
	r.row("hard-7 share of suite mispredictions", "~75%", "%.0f%%", 100*share)
	r.row("worst easy-trace MPKI", "low", "%.2f", worstEasy)
	r.row("best hard-trace MPKI", "high", "%.2f", bestHard)
	r.check("hard traces dominate (>50% of mispredictions)", share > 0.5)
	r.Notes = append(r.Notes,
		"the synthetic suite concentrates ~55-65% of mispredictions in the hard-7 versus ~75% in the CBP-3 set")
	return r
}
