package experiments

import (
	"fmt"

	"repro/internal/cactimodel"
	"repro/internal/predictor"
)

// E1 reproduces Section 4.1.1: effective writes per misprediction and per
// 100 retired branches for TAGE, GEHL and gshare, with silent updates
// eliminated. Paper: TAGE 2.17/9.06, GEHL 1.94/9.10, gshare 1.54/9.61.
func E1(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E1", Title: "Effective writes with silent-update elimination (§4.1.1)"}
	entries := []struct {
		name    string
		spec    string
		paperWM string
		paperWB string
	}{
		{"TAGE 512Kb", "tage", "2.17", "9.06"},
		{"GEHL 520Kb", "gehl", "1.94", "9.10"},
		{"gshare 512Kb", "gshare", "1.54", "9.61"},
	}
	specs := make([]string, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	s := r.run(cfg.suiteMatrix(resolve(specs...), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	silentOK := true
	for _, e := range entries {
		acc, err := accessTotals(s.of(e.spec, predictor.ScenarioA))
		if err != nil {
			r.fail(err)
			return r
		}
		r.row(e.name+" writes/mispredict", e.paperWM, "%.2f", acc.WritesPerMisprediction())
		r.row(e.name+" writes/100 branches", e.paperWB, "%.2f", acc.WritesPer100Branches())
		r.row(e.name+" silent fraction", ">0.90", "%.3f", acc.SilentFraction())
		if acc.SilentFraction() < 0.80 {
			silentOK = false
		}
	}
	r.check("silent updates dominate (>80% of update attempts)", silentOK)
	return r
}

// E2 reproduces Section 4.1.2: suite MPPKI under the four update-timing
// scenarii for gshare, GEHL and TAGE. Paper values:
//
//	gshare: [I] 944  [A] 970  [B] 1292 [C] 1011
//	GEHL:   [I] 664  [A] 685  [B] 801  [C] 744
//	TAGE:   [I] 609  [A] 617  [B] 640  [C] 625
//
// Shape: I <= A <= C <= B for every predictor; the relative [B] and [C]
// degradations are far larger for gshare and GEHL than for TAGE.
func E2(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E2", Title: "Delayed-update scenarii (§4.1.2)"}
	entries := []struct {
		name  string
		spec  string
		paper [4]string // I, A, B, C
	}{
		{"gshare", "gshare", [4]string{"944", "970", "1292", "1011"}},
		{"GEHL", "gehl", [4]string{"664", "685", "801", "744"}},
		{"TAGE", "tage", [4]string{"609", "617", "640", "625"}},
	}
	order := []predictor.Scenario{predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC}
	specs := make([]string, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	s := r.run(cfg.suiteMatrix(resolve(specs...), order...), cfg)
	if s == nil {
		return r
	}
	mppki := map[string]map[predictor.Scenario]float64{}
	for _, e := range entries {
		mppki[e.name] = map[predictor.Scenario]float64{}
		for i, sc := range order {
			v := s.mppki(e.spec, sc)
			mppki[e.name][sc] = v
			r.row(fmt.Sprintf("%s %s MPPKI", e.name, sc), e.paper[i], "%.0f", v)
		}
	}
	for _, e := range entries {
		m := mppki[e.name]
		// 1% tolerance: when a predictor is insensitive to a scenario the
		// ordering is within simulation noise (the paper's point for TAGE).
		r.check(e.name+" ordering I<=A<=C<=B",
			m[predictor.ScenarioI] <= m[predictor.ScenarioA]*1.01 &&
				m[predictor.ScenarioA] <= m[predictor.ScenarioC]*1.01 &&
				m[predictor.ScenarioC] <= m[predictor.ScenarioB]*1.01)
	}
	relB := func(name string) float64 {
		return (mppki[name][predictor.ScenarioB] - mppki[name][predictor.ScenarioI]) / mppki[name][predictor.ScenarioI]
	}
	relC := func(name string) float64 {
		return (mppki[name][predictor.ScenarioC] - mppki[name][predictor.ScenarioI]) / mppki[name][predictor.ScenarioI]
	}
	r.row("gshare [B] blow-up", "+37%", "%s", pct(mppki["gshare"][predictor.ScenarioB]-mppki["gshare"][predictor.ScenarioI], mppki["gshare"][predictor.ScenarioI]))
	r.row("GEHL [B] blow-up", "+21%", "%s", pct(mppki["GEHL"][predictor.ScenarioB]-mppki["GEHL"][predictor.ScenarioI], mppki["GEHL"][predictor.ScenarioI]))
	r.row("TAGE [B] blow-up", "+5%", "%s", pct(mppki["TAGE"][predictor.ScenarioB]-mppki["TAGE"][predictor.ScenarioI], mppki["TAGE"][predictor.ScenarioI]))
	r.check("TAGE [B] degradation well below gshare and GEHL",
		relB("TAGE") < relB("gshare") && relB("TAGE") < relB("GEHL"))
	r.check("TAGE [C] degradation below GEHL [C]", relC("TAGE") < relC("GEHL"))
	r.check("accuracy ordering TAGE < GEHL < gshare (scenario A)",
		mppki["TAGE"][predictor.ScenarioA] < mppki["GEHL"][predictor.ScenarioA] &&
			mppki["GEHL"][predictor.ScenarioA] < mppki["gshare"][predictor.ScenarioA])
	return r
}

// E3 reproduces Section 4.3: 4-way bank-interleaved single-ported TAGE
// under scenario [C]. Paper: 627 MPPKI interleaved vs 625 flat; 1.13
// accesses per retired branch; CACTI ratios 3.3x area and 2x energy.
func E3(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E3", Title: "Bank-interleaved single-ported TAGE (§4.3)"}
	const flat, inter = "tage", "tage:banked=1"
	s := r.run(cfg.suiteMatrix(resolve(flat, inter), predictor.ScenarioC), cfg)
	if s == nil {
		return r
	}
	acc, err := accessTotals(s.of(flat, predictor.ScenarioC))
	if err != nil {
		r.fail(err)
		return r
	}
	fm, im := s.mppki(flat, predictor.ScenarioC), s.mppki(inter, predictor.ScenarioC)
	r.row("TAGE [C] flat MPPKI", "625", "%.0f", fm)
	r.row("TAGE [C] 4-way interleaved MPPKI", "627", "%.0f", im)
	r.row("interleaving penalty", "+0.3%", "%s", pct(im-fm, fm))
	r.row("accesses per retired branch [C]", "1.13", "%.3f", acc.AccessesPerBranch())
	r.check("interleaving penalty marginal (<4%)", im <= fm*1.04 && im >= fm*0.99)
	r.check("~1.0-1.4 accesses per retired branch", acc.AccessesPerBranch() >= 1.0 && acc.AccessesPerBranch() <= 1.4)

	// Area/energy ratios from the analytical model at branch-predictor
	// array sizes.
	c := cactimodel.Compare(64 * 1024 * 8)
	r.row("area ratio 3-port/1-port", "3-4x", "%.2fx", c.AreaRatio3v1)
	r.row("energy ratio 3-port/1-port", "1.25-1.30x", "%.2fx", c.EnergyRatio3v1)
	r.row("area ratio 3-port/banked", "3.3x", "%.2fx", c.AreaRatioMonoVsBanked)
	r.row("energy ratio 3-port/banked", "2x", "%.2fx", c.EnergyRatioMonoVsBanked)
	r.check("area ratio in band", c.AreaRatioMonoVsBanked > 2.9 && c.AreaRatioMonoVsBanked < 3.7)
	r.check("energy ratio in band", c.EnergyRatioMonoVsBanked > 1.7 && c.EnergyRatioMonoVsBanked < 2.5)
	return r
}

// E4 reproduces Section 5.1: the IUM recovers most of the delayed-update
// accuracy loss. Paper: [I] 609; without IUM [A] 617, [B] 640, [C] 625;
// with IUM [A] 611, [B] 624, [C] 614.
func E4(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E4", Title: "Immediate Update Mimicker (§5.1)"}
	s := r.run(cfg.suiteMatrix(resolve("tage", "tage:ium=1"),
		predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC), cfg)
	if s == nil {
		return r
	}
	plain := func(sc predictor.Scenario) float64 { return s.mppki("tage", sc) }
	withIUM := func(sc predictor.Scenario) float64 { return s.mppki("tage:ium=1", sc) }
	base := plain(predictor.ScenarioI)
	r.row("TAGE [I] (oracle)", "609", "%.0f", base)
	paperPlain := map[predictor.Scenario]string{predictor.ScenarioA: "617", predictor.ScenarioB: "640", predictor.ScenarioC: "625"}
	paperIUM := map[predictor.Scenario]string{predictor.ScenarioA: "611", predictor.ScenarioB: "624", predictor.ScenarioC: "614"}
	recovered := map[predictor.Scenario]float64{}
	for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC} {
		p := plain(sc)
		w := withIUM(sc)
		r.row(fmt.Sprintf("TAGE %s no IUM", sc), paperPlain[sc], "%.0f", p)
		r.row(fmt.Sprintf("TAGE %s with IUM", sc), paperIUM[sc], "%.0f", w)
		if p > base {
			recovered[sc] = (p - w) / (p - base)
		}
		r.row(fmt.Sprintf("gap recovered %s", sc), map[predictor.Scenario]string{
			predictor.ScenarioA: "~3/4", predictor.ScenarioB: "~1/2", predictor.ScenarioC: "most"}[sc],
			"%.0f%%", 100*recovered[sc])
	}
	r.check("IUM helps in scenario A", withIUM(predictor.ScenarioA) < plain(predictor.ScenarioA))
	r.check("IUM helps in scenario B (the largest gap)", withIUM(predictor.ScenarioB) < plain(predictor.ScenarioB))
	r.check("IUM neutral-or-better in scenario C", withIUM(predictor.ScenarioC) <= plain(predictor.ScenarioC)*1.01)
	r.check("IUM recovers a substantial part of the delayed-update gap",
		recovered[predictor.ScenarioA] > 0.3 || recovered[predictor.ScenarioB] > 0.3)
	return r
}
