package experiments

import "repro/internal/predictor"

// E5 reproduces Section 5.2: the loop predictor on top of TAGE+IUM.
// Paper: 611 -> 593 MPPKI, "approximately a 3% reduction of the
// performance loss".
func E5(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E5", Title: "Loop predictor on top of TAGE+IUM (§5.2)"}
	const base, withLoop = "tage-ium", "composed:tage+ium+loop"
	s := r.run(cfg.suiteMatrix(resolve(base, withLoop), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	b, w := s.mppki(base, predictor.ScenarioA), s.mppki(withLoop, predictor.ScenarioA)
	r.row("TAGE+IUM MPPKI", "611", "%.0f", b)
	r.row("TAGE+IUM+loop MPPKI", "593", "%.0f", w)
	r.row("reduction", "-3%", "%s", pct(w-b, b))
	r.check("loop predictor reduces MPPKI", w < b)
	r.check("reduction is modest (<15%)", w > b*0.85)
	return r
}

// E6 reproduces Section 5.3: the global Statistical Corrector on top of
// TAGE+IUM+loop. Paper: 593 -> 580 MPPKI ("approximately a 2% reduction").
func E6(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E6", Title: "Statistical Corrector on top of TAGE+IUM+loop (§5.3)"}
	const base, isl = "composed:tage+ium+loop", "isl-tage"
	s := r.run(cfg.suiteMatrix(resolve(base, isl), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	b, w := s.mppki(base, predictor.ScenarioA), s.mppki(isl, predictor.ScenarioA)
	r.row("TAGE+IUM+loop MPPKI", "593", "%.0f", b)
	r.row("ISL-TAGE (+SC) MPPKI", "580", "%.0f", w)
	r.row("reduction", "-2%", "%s", pct(w-b, b))
	r.check("SC reduces MPPKI", w < b)
	r.check("reduction is modest (<12%)", w > b*0.88)
	return r
}

// E7 reproduces Section 5.4: ISL-TAGE reduces the misprediction rate of
// the 512Kbit TAGE by ~6%, roughly what scaling TAGE to 2Mbits buys.
func E7(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E7", Title: "ISL-TAGE vs scaling TAGE to 2 Mbits (§5.4)"}
	const t512, isl, t2m = "tage", "isl-tage", "tage@+2"
	s := r.run(cfg.suiteMatrix(resolve(t512, isl, t2m), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	sum := func(spec string) float64 { return s.mppki(spec, predictor.ScenarioA) }
	a, b, c := sum(t512), sum(isl), sum(t2m)
	r.row("TAGE 512Kb MPPKI", "617", "%.0f", a)
	r.row("ISL-TAGE 512Kb MPPKI", "580", "%.0f", b)
	r.row("TAGE 2Mb MPPKI", "~580", "%.0f", c)
	r.row("ISL-TAGE gain over TAGE", "-6%", "%s", pct(b-a, a))
	r.check("ISL-TAGE beats same-size TAGE", b < a)
	r.check("side predictors worth roughly a 4x size scaling",
		b <= a && (c >= b*0.85 || b <= c*1.15))
	return r
}
