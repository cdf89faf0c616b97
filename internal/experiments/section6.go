package experiments

import (
	"fmt"

	"repro/internal/composed"
	"repro/internal/harness"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/workload"
)

// E8 reproduces Section 6.1: the LSC on top of the full stack reaches 555
// MPPKI; the LSC *alone* on TAGE+IUM reaches 559, i.e. it captures most
// of what the loop predictor and the global SC capture; useful reverts
// exceed 70%.
func E8(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E8", Title: "Local Statistical Corrector (§6.1)"}
	const base, isl = "tage-ium", "isl-tage"
	const full, lscOnly = "composed:tage+ium+loop+gsc+lsc", "composed:tage+ium+lsc"
	s := r.run(cfg.suiteMatrix(resolve(base, isl, full, lscOnly), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	b := s.mppki(base, predictor.ScenarioA)
	i := s.mppki(isl, predictor.ScenarioA)
	f := s.mppki(full, predictor.ScenarioA)
	lo := s.mppki(lscOnly, predictor.ScenarioA)
	r.row("TAGE+IUM MPPKI", "611", "%.0f", b)
	r.row("ISL-TAGE (loop+SC) MPPKI", "580", "%.0f", i)
	r.row("full stack +LSC MPPKI", "555", "%.0f", f)
	r.row("TAGE+IUM+LSC only MPPKI", "559", "%.0f", lo)
	r.row("LSC-only gain over TAGE+IUM", ">8%", "%s", pct(lo-b, b))
	r.check("full stack beats ISL-TAGE", f < i)
	r.check("LSC alone beats loop+SC (subsumption)", lo < i)
	r.check("LSC alone close to full stack (within 6%)", lo <= f*1.06)

	// Revert usefulness, measured on one representative trace: a single
	// simulation whose predictor internals are read back afterwards, so it
	// runs directly rather than as a harness cell.
	p := composed.New(composed.TAGELSC(tage.Reference(), "probe"))
	tr := workload.Generate(mustFind("WS03"), cfg.BranchesPerTrace)
	var rn sim.Runner[composed.Ctx]
	rn.RunTrace(p, tr, sim.Options{Scenario: predictor.ScenarioA, Window: cfg.Window, ExecDelay: cfg.ExecDelay})
	rate := p.LSC().RevertSuccessRate()
	r.row("LSC revert success rate (WS03)", ">70%", "%.0f%%", 100*rate)
	r.check("reverts are profitable (>50% correct)", rate > 0.5)
	return r
}

func mustFind(name string) workload.Spec {
	s, ok := workload.Find(name)
	if !ok {
		panic("unknown benchmark " + name)
	}
	return s
}

// E9 reproduces the Section 6.1 budget-matched comparison at 512 Kbits:
// TAGE-LSC 562 vs a same-structure ISL-TAGE 581 (the CBP-3 ISL-TAGE with
// its extra tricks reached 568).
func E9(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E9", Title: "512Kbit budget match: TAGE-LSC vs ISL-TAGE (§6.1)"}
	// No model spec describes the same-structure ISL-TAGE (its TAGE core
	// halves T7 and its SC has five tables), so it carries an
	// experiment-local name.
	const tagelsc, islSame = "tage-lsc", "isl-tage-512k-sc5"
	isl512 := composed.ISLTAGE(composed.Budget512K(), "ISL-TAGE-512K")
	// "5 tables GEHL-like predictor for Statistical Corrector".
	isl512.SC.Lengths = []int{0, 4, 10, 17, 31}
	ms := append(resolve(tagelsc), models.Composed(islSame, isl512))
	s := r.run(cfg.suiteMatrix(ms, predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	a, b := s.mppki(tagelsc, predictor.ScenarioA), s.mppki(islSame, predictor.ScenarioA)
	r.row("TAGE-LSC 512Kb MPPKI", "562", "%.0f", a)
	r.row("ISL-TAGE 512Kb (same structure) MPPKI", "581", "%.0f", b)
	r.row("TAGE-LSC advantage", "-3.3%", "%s", pct(a-b, b))
	r.check("TAGE-LSC beats same-budget ISL-TAGE", a < b)
	r.Notes = append(r.Notes,
		"the CBP-3 ISL-TAGE entry (568 MPPKI) used sharing/interleaving tricks we do not model")
	return r
}

// tageConfigFor builds ~512Kbit TAGE configs with a given tagged-table
// count and history series (the Section 6.2 robustness sweep).
func tageConfigFor(nTagged, minHist, maxHist int, name string) tage.Config {
	logs := make([]uint, nTagged)
	tags := make([]uint, nTagged)
	for i := range logs {
		switch {
		case nTagged >= 12: // reference-like ladder
			ref := tage.Reference()
			copy(logs, ref.TableLogs)
			copy(tags, ref.TagBits)
		case nTagged >= 8:
			logs[i] = 12
		default:
			if i == 0 {
				logs[i] = 12
			} else {
				logs[i] = 13
			}
		}
		if nTagged < 12 {
			t := uint(5 + i + 1)
			if t > 15 {
				t = 15
			}
			tags[i] = t
		}
	}
	return tage.Config{
		Name: name, TableLogs: logs, TagBits: tags,
		MinHist: minHist, MaxHist: maxHist,
	}
}

// E10 reproduces Section 6.2: TAGE-LSC robustness to the history series
// and the number of tables. Paper: (6,2000) base 562; (3,300) 575;
// (4,1000) 563; (8,5000) 563; 9-component (6,1000) 566; 6-component
// (6,500) 583.
func E10(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E10", Title: "History series robustness of TAGE-LSC (§6.2)"}
	type variant struct {
		label   string
		paper   string
		nTagged int
		min     int
		max     int
	}
	variants := []variant{
		{"13-comp (6,2000) [base]", "562", 12, 6, 2000},
		{"13-comp (3,300)", "575", 12, 3, 300},
		{"13-comp (4,1000)", "563", 12, 4, 1000},
		{"13-comp (8,5000)", "563", 12, 8, 5000},
		{"9-comp (6,1000)", "566", 8, 6, 1000},
		{"6-comp (6,500)", "583", 5, 6, 500},
	}
	// No model spec describes these cores (the 13-component ones halve
	// T7, the others use their own size ladders), so each variant carries
	// an experiment-local name unique to its configuration.
	ms := make([]harness.Model, len(variants))
	for i, v := range variants {
		name := fmt.Sprintf("tage-lsc-%dcomp-hist%d:%d", v.nTagged+1, v.min, v.max)
		tcfg := tageConfigFor(v.nTagged, v.min, v.max, v.label)
		if v.nTagged >= 12 {
			tcfg = composed.Budget512K()
			tcfg.MinHist, tcfg.MaxHist = v.min, v.max
			tcfg.Name = v.label
		}
		ms[i] = models.Composed(name, composed.TAGELSC(tcfg, v.label))
	}
	s := r.run(cfg.suiteMatrix(ms, predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	var baseV float64
	var worst float64
	for i, v := range variants {
		m := s.mppki(ms[i].Name, predictor.ScenarioA)
		r.row(v.label+" MPPKI", v.paper, "%.0f", m)
		if i == 0 {
			baseV = m
		}
		if m > worst {
			worst = m
		}
	}
	r.check("robust to history series and table count (worst within 12% of base)",
		worst <= baseV*1.12)
	return r
}

// E11 reproduces Figure 9: TAGE vs TAGE-LSC, 128Kbit to 32Mbit, scaling
// all components by powers of two. Shape targets: TAGE-LSC performs as a
// 4-8x larger TAGE in the 128-512Kbit range; both curves plateau by
// 16-32Mbit; CLIENT02's misprediction rate collapses only at multi-Mbit
// budgets. The whole grid runs as one harness matrix with a DeltaLogs
// axis — the same sweep `bpbench -models tage,tage-lsc -delta -2:6`
// performs — instead of a private per-budget loop.
func E11(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E11", Title: "Figure 9: TAGE vs TAGE-LSC size scaling"}
	deltas := []int{-2, -1, 0, 1, 2, 3, 4, 5, 6} // 128Kb .. 32Mb
	m := cfg.suiteMatrix(resolve("tage", "tage-lsc"), predictor.ScenarioA)
	m.DeltaLogs = deltas
	s := r.run(m, cfg)
	if s == nil {
		return r
	}
	tageM := map[int]float64{}
	lscM := map[int]float64{}
	client02 := map[int]float64{}
	for _, d := range deltas {
		tageM[d] = s.mppki(harness.ScaledName("tage", d), predictor.ScenarioA)
		lscM[d] = s.mppki(harness.ScaledName("tage-lsc", d), predictor.ScenarioA)
		for _, c := range s.of(harness.ScaledName("tage-lsc", d), predictor.ScenarioA) {
			if c.Trace == "CLIENT02" {
				client02[d] = c.MPPKI
			}
		}
		size := 512
		if d >= 0 {
			size <<= uint(d)
		} else {
			size >>= uint(-d)
		}
		label := fmt.Sprintf("%dKb", size)
		if size >= 1024 {
			label = fmt.Sprintf("%dMb", size/1024)
		}
		r.row("TAGE "+label, figure9Paper(d, false), "%.0f", tageM[d])
		r.row("TAGE-LSC "+label, figure9Paper(d, true), "%.0f", lscM[d])
	}
	// Monotone improvement with size (within noise).
	mono := true
	for i := 1; i < len(deltas); i++ {
		if tageM[deltas[i]] > tageM[deltas[i-1]]*1.03 {
			mono = false
		}
	}
	r.check("TAGE curve decreasing with size", mono)
	r.check("TAGE-LSC below TAGE at every size in 128K-2M",
		lscM[-2] < tageM[-2] && lscM[-1] < tageM[-1] && lscM[0] < tageM[0] && lscM[2] < tageM[2])
	// TAGE-LSC at 512Kb should be at least as good as TAGE at 2Mb (4x).
	r.check("TAGE-LSC ~ 4x larger TAGE in the implementation range",
		lscM[0] <= tageM[2]*1.03)
	plateau := (tageM[5] - tageM[6]) / tageM[5]
	r.row("TAGE 16M->32M improvement", "~0 (plateau)", "%.1f%%", 100*plateau)
	r.check("plateau at 16-32Mb (<4% improvement left)", plateau < 0.04)
	r.row("CLIENT02 MPPKI 512Kb", "high", "%.0f", client02[0])
	r.row("CLIENT02 MPPKI 8Mb", "collapsed", "%.0f", client02[4])
	r.check("CLIENT02 improves sharply at multi-Mbit budgets", client02[4] < client02[0]*0.8)
	r.Notes = append(r.Notes,
		"CLIENT02's capacity cliff deepens with trace length (each zoo mapping needs several sightings to train); the paper's full-length traces show a sharper collapse")
	return r
}

func figure9Paper(d int, isLSC bool) string {
	// Approximate values read off Figure 9 for reference.
	tage := map[int]string{-2: "~680", -1: "~650", 0: "~617", 1: "~595", 2: "~580", 3: "~565", 4: "~550", 5: "~540", 6: "~537"}
	lsc := map[int]string{-2: "~620", -1: "~590", 0: "~562", 1: "~545", 2: "~530", 3: "~515", 4: "~505", 5: "~498", 6: "~495"}
	if isLSC {
		return lsc[d]
	}
	return tage[d]
}

// E12 reproduces Figure 10 and Section 6.3: ISL-TAGE and TAGE-LSC against
// the neural-based FTL++ and OH-SNAP. Paper: on the 33 most predictable
// traces ISL 196, LSC 198, FTL++ 232, OH-SNAP 254; on the 7 hardest ISL
// 2311, LSC 2287, OH-SNAP 2227, FTL++ 2222 — the neural predictors win on
// the hard subset, lose clearly on the easy one.
func E12(cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{ID: "E12", Title: "Figure 10: TAGE family vs neural predictors"}
	entries := []struct {
		name      string
		spec      string
		paperEasy string
		paperHard string
	}{
		{"ISL-TAGE", "isl-tage", "196", "2311"},
		{"TAGE-LSC", "tage-lsc", "198", "2287"},
		{"OH-SNAP", "ohsnap", "254", "2227"},
		{"FTL++", "ftlpp", "232", "2222"},
	}
	specs := make([]string, len(entries))
	for i, e := range entries {
		specs[i] = e.spec
	}
	s := r.run(cfg.suiteMatrix(resolve(specs...), predictor.ScenarioA), cfg)
	if s == nil {
		return r
	}
	easy := map[string]float64{}
	hard := map[string]float64{}
	for _, e := range entries {
		var easyCells, hardCells []harness.Record
		for _, c := range s.of(e.spec, predictor.ScenarioA) {
			if workload.HardNames[c.Trace] {
				hardCells = append(hardCells, c)
			} else {
				easyCells = append(easyCells, c)
			}
		}
		easy[e.name] = totalMPPKI(easyCells)
		hard[e.name] = totalMPPKI(hardCells)
		r.row(e.name+" 33 easy MPPKI", e.paperEasy, "%.0f", easy[e.name])
		r.row(e.name+" 7 hard MPPKI", e.paperHard, "%.0f", hard[e.name])
	}
	r.check("TAGE-LSC clearly better than the neural predictors on the 33 easy traces",
		easy["TAGE-LSC"] < easy["OH-SNAP"]*0.85 && easy["TAGE-LSC"] < easy["FTL++"]*0.85)
	// The Figure 10 crossover, stated scale-independently: each neural
	// predictor closes (or reverses) its easy-trace deficit on the hard
	// subset, because majority/copy behaviours are linearly separable.
	crossover := func(name string) bool {
		hardRatio := hard[name] / hard["TAGE-LSC"]
		easyRatio := easy[name] / easy["TAGE-LSC"]
		return hardRatio < easyRatio*0.75
	}
	r.check("OH-SNAP closes its gap on the 7 hard traces", crossover("OH-SNAP"))
	r.check("FTL++ closes its gap on the 7 hard traces", crossover("FTL++"))
	r.Notes = append(r.Notes,
		"our synthetic easy traces are richer in local-only patterns than CBP-3, which penalises ISL-TAGE (no local component) relative to the paper's near-tie with TAGE-LSC")
	return r
}
