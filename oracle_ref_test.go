package repro

import (
	"slices"

	"repro/internal/histories"
	"repro/internal/memarray"
	"repro/internal/predictor"
	"repro/internal/rng"
	"repro/internal/tage"
	"repro/internal/trace"
)

// A reference model of the simulator and of TAGE, written straight from
// the paper for the differential oracle in oracle_test.go. It is slow
// and plain on purpose:
//   - one loop per branch, with no decode batches and no lanes;
//   - the in-flight branches in a plain slice;
//   - the four update scenarios of §4.1.2 as four explicit cases;
//   - one slice per tagged table;
//   - every folded history recomputed from the full history at every
//     prediction (histories.Folded.Recompute, the folds' ground truth).
//
// It shares no code with internal/sim or internal/tage beyond the
// configuration type, the history buffer, the access counters and the
// RNG that draws the allocation tie-breaks. The IUM (§5.1) is not
// modelled.

// refRNGSalt is the salt TAGE mixes into Config.Seed for the stream
// that randomises its allocation start.
const refRNGSalt = 0x7a6e_0001

// refEntry is one tagged-table entry (Figure 2): a 3-bit signed
// prediction counter, a partial tag and one useful bit.
type refEntry struct {
	ctr int8
	tag uint16
	u   uint8
}

// refTAGE is the TAGE predictor of §3: a bimodal base T0 and tagged
// tables T1..TM indexed with geometric history lengths.
type refTAGE struct {
	logs, tagBits []uint
	lengths       []int
	banked        bool
	maxAlloc      int

	// The bimodal base: each 2-bit counter is a prediction bit plus a
	// hysteresis bit shared by 2^hystShift neighbours.
	bimPred, bimHyst []uint8
	hystShift        uint

	// tables[i] is tagged table T(i+1).
	tables [][]refEntry

	hist *histories.Global
	// prev1 and prev2 are the banks of the two previous predictions
	// (-1 for none), which §4.3's bank selection avoids.
	prev1, prev2 int

	useAlt int32  // USE_ALT_ON_NA, a 4-bit signed counter
	tick   uint32 // the 8-bit allocation success/failure monitor
	rand   *rng.Xoshiro
	stats  memarray.Stats
}

// refRead is what one prediction read. It travels down the pipeline
// with its branch; scenario B updates from it alone.
type refRead struct {
	bimIdx uint32
	bimCtr int32
	// Per tagged table: the index and tag computed, and the counter and
	// useful bit read there.
	idx []uint32
	tag []uint16
	ctr []int8
	u   []uint8
	// provider and alt name a table (1..M), or 0 for the bimodal base.
	provider, alt     int
	provPred, altPred bool
	weak              bool
	pred              bool
}

// newRefTAGE builds the reference predictor of cfg, with a history long
// enough to hold a trace of n branches whole.
func newRefTAGE(cfg tage.Config, n int) *refTAGE {
	orDefault := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	logBim := uint(orDefault(int(cfg.LogBimodal), 15))
	logHyst := uint(orDefault(int(cfg.LogBimodalHyst), int(logBim)-2))
	p := &refTAGE{
		logs:      cfg.TableLogs,
		tagBits:   cfg.TagBits,
		lengths:   histories.GeometricSeries(orDefault(cfg.MinHist, 6), orDefault(cfg.MaxHist, 2000), len(cfg.TableLogs)),
		banked:    cfg.Interleaved,
		maxAlloc:  orDefault(cfg.MaxAlloc, 4),
		bimPred:   make([]uint8, 1<<logBim),
		bimHyst:   make([]uint8, 1<<logHyst),
		hystShift: logBim - logHyst,
		prev1:     -1,
		prev2:     -1,
		rand:      rng.NewXoshiro(cfg.Seed ^ refRNGSalt),
	}
	// Every bimodal counter starts weakly not-taken (1).
	for i := range p.bimHyst {
		p.bimHyst[i] = 1
	}
	for _, l := range p.logs {
		p.tables = append(p.tables, make([]refEntry, 1<<l))
	}
	p.hist = histories.NewGlobal(n + p.lengths[len(p.lengths)-1] + 1)
	return p
}

func (p *refTAGE) bimRead(i uint32) int32 {
	return int32(p.bimPred[i])<<1 | int32(p.bimHyst[i>>p.hystShift])
}

// bimWrite stores counter v at i, accounting the prediction and
// hysteresis bits as two writes, each effective only if it changes.
func (p *refTAGE) bimWrite(i uint32, v int32) {
	pred, hyst := uint8(v>>1), uint8(v&1)
	p.stats.RecordWrite(p.bimPred[i] != pred)
	p.bimPred[i] = pred
	p.stats.RecordWrite(p.bimHyst[i>>p.hystShift] != hyst)
	p.bimHyst[i>>p.hystShift] = hyst
}

// refSat moves a signed counter of the given width one step toward the
// outcome, saturating.
func refSat(v int32, up bool, bits uint) int32 {
	hi, lo := int32(1)<<(bits-1)-1, -(int32(1) << (bits - 1))
	if up && v < hi {
		return v + 1
	}
	if !up && v > lo {
		return v - 1
	}
	return v
}

// fold is the current history's last length bits folded to width.
func (p *refTAGE) fold(length int, width uint) uint32 {
	f := histories.NewFolded(length, width)
	f.Recompute(p.hist)
	return f.Value()
}

// indexWidth is the index width of table i within a bank: an
// interleaved table spends its top two index bits on the bank (§4.3).
func (p *refTAGE) indexWidth(i int) uint {
	if p.banked {
		return p.logs[i] - 2
	}
	return p.logs[i]
}

// predict is §3.1: index every table, take the longest-history hit as
// the provider and the next one as the alternate, and predict with the
// provider unless it is weak and USE_ALT_ON_NA trusts the alternate.
func (p *refTAGE) predict(pc uint64) *refRead {
	m := len(p.tables)
	r := &refRead{idx: make([]uint32, m), tag: make([]uint16, m), ctr: make([]int8, m), u: make([]uint8, m)}
	h := uint32(pc >> 2)
	bank := uint32(0)
	if p.banked {
		b := int((pc>>2 ^ pc>>4) & 3)
		for b == p.prev1 || b == p.prev2 {
			b = (b + 1) & 3
		}
		p.prev2, p.prev1 = p.prev1, b
		bank = uint32(b)
		per := uint32(len(p.bimPred)) / 4
		r.bimIdx = bank*per + h&(per-1)
	} else {
		r.bimIdx = h & uint32(len(p.bimPred)-1)
	}
	r.bimCtr = p.bimRead(r.bimIdx)
	for i := range p.tables {
		w, tw := p.indexWidth(i), p.tagBits[i]
		l := p.lengths[i]
		idx := (h ^ h>>(uint(i)%w+1) ^ p.fold(l, w)) & (1<<w - 1)
		r.idx[i] = idx | bank<<w
		r.tag[i] = uint16(h^p.fold(l, tw)^p.fold(l, max(tw-1, 1))<<1) & uint16(uint32(1)<<tw-1)
		e := p.tables[i][r.idx[i]]
		r.ctr[i], r.u[i] = e.ctr, e.u
	}
	r.provider, r.alt = p.hits(r)
	bimTaken := r.bimCtr >= 2
	r.provPred, r.altPred = bimTaken, bimTaken
	if r.provider > 0 {
		c := r.ctr[r.provider-1]
		r.provPred, r.weak = c >= 0, c == 0 || c == -1
	}
	if r.alt > 0 {
		r.altPred = r.ctr[r.alt-1] >= 0
	}
	r.pred = r.provPred
	if r.provider > 0 && r.weak && p.useAlt >= 0 {
		r.pred = r.altPred
	}
	return r
}

// hits returns the two longest-history tables whose entry at r's index
// carries r's tag, as the tables stand now.
func (p *refTAGE) hits(r *refRead) (provider, alt int) {
	for i := len(p.tables) - 1; i >= 0; i-- {
		if p.tables[i][r.idx[i]].tag != r.tag[i] {
			continue
		}
		if provider == 0 {
			provider = i + 1
		} else {
			return provider, i + 1
		}
	}
	return provider, 0
}

// resolve pushes the branch's outcome into the global history.
func (p *refTAGE) resolve(taken bool) { p.hist.Push(taken) }

// retire is the §3.2 update of one branch. With reread it reads the
// tables again at r's indices and tags; without, it updates from what
// r read at prediction time and writes the results back blindly.
func (p *refTAGE) retire(taken bool, r *refRead, reread bool) {
	provider, alt := r.provider, r.alt
	bimCtr := r.bimCtr
	ctrOf := func(t int) int32 { return int32(r.ctr[t-1]) }
	uOf := func(t int) uint8 { return r.u[t-1] }
	if reread {
		bimCtr = p.bimRead(r.bimIdx)
		provider, alt = p.hits(r)
		ctrOf = func(t int) int32 { return int32(p.tables[t-1][r.idx[t-1]].ctr) }
		uOf = func(t int) uint8 { return p.tables[t-1][r.idx[t-1]].u }
	}
	entry := func(t int) *refEntry { return &p.tables[t-1][r.idx[t-1]] }
	bimTaken := bimCtr >= 2
	provPred, altPred, weak := bimTaken, bimTaken, false
	if provider > 0 {
		c := ctrOf(provider)
		provPred, weak = c >= 0, c == 0 || c == -1
	}
	if alt > 0 {
		altPred = ctrOf(alt) >= 0
	}
	setCtr := func(t int, v int32) {
		e := entry(t)
		p.stats.RecordWrite(e.ctr != int8(v))
		e.ctr = int8(v)
	}

	if provider == 0 {
		p.bimWrite(r.bimIdx, clamp(bimCtr+step(taken), 0, 3))
	} else {
		setCtr(provider, refSat(ctrOf(provider), taken, 3))
		if weak {
			// A weak (newly allocated) provider trains its alternate too,
			// and USE_ALT_ON_NA learns which of the two to trust.
			if alt > 0 {
				setCtr(alt, refSat(ctrOf(alt), taken, 3))
			} else {
				p.bimWrite(r.bimIdx, clamp(bimCtr+step(taken), 0, 3))
			}
			if provPred != altPred {
				p.useAlt = refSat(p.useAlt, altPred == taken, 4)
			}
		}
		// The provider is useful when it was right and the alternate wrong.
		if provPred != altPred && provPred == taken {
			e := entry(provider)
			p.stats.RecordWrite(e.u != 1)
			e.u = 1
		}
	}

	// A misprediction allocates (§3.2.1) up to maxAlloc entries among
	// the not-useful ones above the provider, on non-consecutive
	// tables, starting one table further at random. The monitor counts
	// failures up and successes down; at saturation every useful bit
	// is reset.
	m := len(p.tables)
	if r.pred == taken || provider >= m {
		return
	}
	start := provider + 1
	if start < m && p.rand.Uint64()&1 == 1 {
		start++
	}
	allocated := 0
	for t := start; t <= m && allocated < p.maxAlloc; {
		if uOf(t) != 0 {
			p.tick = min(p.tick+1, 255)
			t++
			continue
		}
		// A new entry is weak in the branch's direction.
		ctr := int8(-1)
		if taken {
			ctr = 0
		}
		*entry(t) = refEntry{ctr: ctr, tag: r.tag[t-1]}
		p.stats.RecordWrite(true)
		allocated++
		if p.tick > 0 {
			p.tick--
		}
		t += 2
	}
	if p.tick >= 255 {
		for _, tbl := range p.tables {
			for i := range tbl {
				tbl[i].u = 0
			}
		}
		p.tick = 0
	}
}

func step(taken bool) int32 {
	if taken {
		return 1
	}
	return -1
}

func clamp(v, lo, hi int32) int32 { return max(lo, min(v, hi)) }

// refRun is the outcome of one reference simulation: every prediction,
// in trace order, and the final record.
type refRun struct {
	preds []bool
	res   Result
}

// refSimulate runs the reference TAGE of cfg over tr under scenario sc,
// with the pipeline sim documents: a branch retires window fetches
// after its own, in order, and never more than window+1 wait; a
// misprediction drains the pipeline, so that everything in flight
// retires within execDelay fetches of it.
func refSimulate(cfg tage.Config, tr *trace.Trace, sc predictor.Scenario, window, execDelay int, penalty float64) refRun {
	branches := slices.Collect(tr.Branches())
	p := newRefTAGE(cfg, len(branches))
	type inflight struct {
		taken, mispred bool
		read           *refRead
		retireAt       int
	}
	var (
		out                               refRun
		pipe                              []inflight
		microOps, mispreds                uint64
		retireReads, writeEvents, retired uint64
		penaltySum                        float64
	)
	update := func(b inflight, reread bool) {
		before := p.stats.EntryWrites
		p.retire(b.taken, b.read, reread)
		if p.stats.EntryWrites != before {
			writeEvents++
		}
		retired++
	}
	retire := func(b inflight) {
		switch sc {
		case predictor.ScenarioA: // re-read at retire
			retireReads++
			update(b, true)
		case predictor.ScenarioB: // update from the fetch-time read alone
			update(b, false)
		case predictor.ScenarioC: // re-read only after a misprediction
			if b.mispred {
				retireReads++
			}
			update(b, b.mispred)
		default:
			panic("scenario I retires at once")
		}
	}
	if sc == predictor.ScenarioI {
		window = 0
	}
	for seq, b := range branches {
		for len(pipe) > 0 && pipe[0].retireAt <= seq {
			retire(pipe[0])
			pipe = pipe[1:]
		}
		if len(pipe) > window {
			retire(pipe[0])
			pipe = pipe[1:]
		}
		read := p.predict(b.PC)
		out.preds = append(out.preds, read.pred)
		mispred := read.pred != b.Taken
		p.resolve(b.Taken)
		microOps += uint64(b.OpsBefore) + 1
		if mispred {
			mispreds++
			penaltySum += penalty
		}
		if sc == predictor.ScenarioI {
			// The oracle: the tables see each update before the next
			// prediction, and nothing is ever in flight.
			update(inflight{taken: b.Taken, read: read}, true)
			continue
		}
		pipe = append(pipe, inflight{taken: b.Taken, mispred: mispred, read: read, retireAt: seq + window})
		if mispred {
			for i := range pipe {
				pipe[i].retireAt = min(pipe[i].retireAt, seq+execDelay)
			}
		}
	}
	for _, b := range pipe {
		retire(b)
	}

	n := uint64(len(branches))
	acc := p.stats
	acc.PredictReads, acc.Mispredictions = n, mispreds
	acc.RetireReads, acc.WriteEvents, acc.RetiredBranch = retireReads, writeEvents, retired
	out.res = Result{
		Scenario: sc, Branches: n, MicroOps: microOps, Mispredicts: mispreds,
		Access: acc, Window: window, ExecDelay: execDelay,
	}
	if microOps > 0 {
		out.res.MPKI = float64(mispreds) / (float64(microOps) / 1000)
		out.res.MPPKI = penaltySum / (float64(microOps) / 1000)
	}
	if n > 0 {
		out.res.Misprediction = float64(mispreds) / float64(n)
	}
	return out
}
