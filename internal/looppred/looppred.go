// Package looppred implements the loop predictor side predictor of
// Section 5.2: a small, high-associativity table identifying branches that
// behave as loops with a constant iteration count, predicting their exits
// with very high accuracy once confidence is established ("reaching a high
// confidence level after 7 executions of the overall loop"). It includes
// the Speculative Loop Iteration Manager (SLIM, Figure 5) that tracks the
// iteration counts of in-flight loop instances.
//
// The paper's configuration: 4-way skewed-associative, 64 entries, each
// entry holding a past iteration count (10 bits), a retire (current)
// iteration count (10 bits), a partial tag (10 bits), a confidence counter
// (3 bits), an age counter (3 bits) and one direction bit — 37 bits/entry.
package looppred

import (
	"repro/internal/bitutil"
	"repro/internal/inflight"
	"repro/internal/memarray"
)

// Config parameterises the loop predictor.
type Config struct {
	Entries  int  // total entries (default 64)
	Ways     int  // associativity (default 4, skewed)
	TagBits  uint // partial tag width (default 10)
	IterBits uint // iteration counter width (default 10)
	ConfMax  uint8
	AgeMax   uint8
	SlimCap  int // in-flight loop instances tracked (default 64)
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.TagBits == 0 {
		c.TagBits = 10
	}
	if c.IterBits == 0 {
		c.IterBits = 10
	}
	if c.ConfMax == 0 {
		c.ConfMax = 7
	}
	if c.AgeMax == 0 {
		c.AgeMax = 7
	}
	if c.SlimCap == 0 {
		c.SlimCap = 64
	}
	return c
}

type entry struct {
	tag     uint16
	past    uint16 // learned iteration count ("past iteration count")
	current uint16 // architectural (retire-time) iteration count
	conf    uint8
	age     uint8
	dir     bool // direction taken while iterating
	valid   bool
}

type slimEntry struct {
	key  uint32
	iter uint16
}

// Predictor is the loop predictor plus SLIM.
type Predictor struct {
	cfg   Config
	sets  [][]entry // [nsets][ways]
	nsets int

	slim inflight.Ring[slimEntry]

	stats *memarray.Stats

	// Overrides counts predictions where the loop predictor supplied the
	// final direction; Useful counts those where it differed from the main
	// prediction and was right.
	Overrides uint64
	Useful    uint64
}

// New creates a loop predictor. stats may be nil.
func New(cfg Config, stats *memarray.Stats) *Predictor {
	cfg = cfg.withDefaults()
	if stats == nil {
		stats = &memarray.Stats{}
	}
	nsets := cfg.Entries / cfg.Ways
	p := &Predictor{
		cfg:   cfg,
		nsets: nsets,
		sets:  make([][]entry, nsets),
		slim:  inflight.New[slimEntry](cfg.SlimCap),
		stats: stats,
	}
	for i := range p.sets {
		p.sets[i] = make([]entry, cfg.Ways)
	}
	return p
}

// StorageBits returns the loop table storage (37 bits per entry for the
// default configuration).
func (p *Predictor) StorageBits() int {
	return len(p.sets) * p.cfg.Ways * p.cfg.entryBits()
}

// StorageBits returns the storage budget of the loop predictor New(c, ...)
// builds, without allocating its table: Entries rounded down to whole
// sets of Ways.
func (c Config) StorageBits() int {
	c = c.withDefaults()
	return c.Entries / c.Ways * c.Ways * c.entryBits()
}

// entryBits is one entry's width: two iteration counts, the tag, 3-bit
// confidence and age, and the direction bit.
func (c Config) entryBits() int { return int(2*c.IterBits + c.TagBits + 3 + 3 + 1) }

// setIndex returns the skewed set index for a way.
func (p *Predictor) setIndex(pc uint64, way int) int {
	h := bitutil.Mix64(pc>>2 ^ uint64(way)*0x9e3779b97f4a7c15)
	return int(h % uint64(p.nsets))
}

func (p *Predictor) tagOf(pc uint64) uint16 {
	return uint16(bitutil.Mix64(pc>>2)>>13) & uint16(bitutil.Mask(p.cfg.TagBits))
}

func (p *Predictor) slimKey(pc uint64) uint32 { return uint32(pc >> 2) }

// Ctx is the per-branch loop predictor context.
type Ctx struct {
	Hit      bool
	Set, Way int
	// Valid is true when the entry has maximum confidence, i.e. the loop
	// prediction should override the main predictor.
	Valid bool
	Pred  bool
	// SpecIter is the speculative iteration number used for the
	// prediction (from SLIM if an instance was in flight).
	SpecIter   uint16
	PushedSlim bool
}

// Predict fills ctx with the loop predictor's view of pc. It does not
// modify any state.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) {
	*ctx = Ctx{Set: -1, Way: -1}
	tag := p.tagOf(pc)
	for w := 0; w < p.cfg.Ways; w++ {
		s := p.setIndex(pc, w)
		e := &p.sets[s][w]
		if e.valid && e.tag == tag {
			ctx.Hit = true
			ctx.Set, ctx.Way = s, w
			// Speculative iteration: most recent in-flight instance if
			// present, otherwise the architectural count.
			iter := e.current
			if si, ok := p.slimLookup(p.slimKey(pc)); ok {
				iter = si
			}
			ctx.SpecIter = iter
			if e.conf >= p.cfg.ConfMax && e.past > 0 {
				ctx.Valid = true
				// past counts the taken iterations of one execution; this
				// occurrence is number iter+1, so the exit is reached once
				// iter equals past.
				if iter >= e.past {
					ctx.Pred = !e.dir // predict the exit
				} else {
					ctx.Pred = e.dir
				}
			}
			return
		}
	}
}

// slimLookup finds the youngest in-flight instance for key.
func (p *Predictor) slimLookup(key uint32) (uint16, bool) {
	old, young := p.slim.Halves()
	for _, half := range [2][]slimEntry{young, old} {
		for i := len(half) - 1; i >= 0; i-- {
			if half[i].key == key {
				return half[i].iter, true
			}
		}
	}
	return 0, false
}

// OnResolve updates the speculative iteration state: an in-flight instance
// advances its iteration count (Figure 5: "new SI") or clears it at a loop
// exit. Only branches hitting in the loop table are tracked.
func (p *Predictor) OnResolve(pc uint64, taken bool, ctx *Ctx) {
	if !ctx.Hit {
		return
	}
	e := &p.sets[ctx.Set][ctx.Way]
	var next uint16
	if taken == e.dir {
		next = ctx.SpecIter + 1
		if next >= uint16(bitutil.Mask(p.cfg.IterBits)) {
			next = uint16(bitutil.Mask(p.cfg.IterBits))
		}
	} else {
		next = 0
	}
	p.slim.Push(slimEntry{key: p.slimKey(pc), iter: next})
	ctx.PushedSlim = true
}

// Retire performs the architectural update. usefulHint indicates the main
// predictor's prediction was wrong for this branch while the loop
// prediction was valid — the paper's condition for incrementing the age
// ("incremented when the entry is used and has provided a valid prediction
// and the prediction would have been incorrect otherwise").
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, usefulHint bool) {
	if ctx.PushedSlim {
		p.slim.Pop()
	}
	if !ctx.Hit {
		return
	}
	e := &p.sets[ctx.Set][ctx.Way]
	if e.tag != p.tagOf(pc) || !e.valid {
		return // entry replaced while in flight
	}
	if ctx.Valid && ctx.Pred == taken && usefulHint {
		e.age = uint8(min(int(e.age)+1, int(p.cfg.AgeMax)))
	}
	if taken == e.dir {
		// Still iterating.
		e.current++
		if e.past > 0 && e.current > e.past {
			// More iterations than learned: not a constant-trip loop.
			e.conf = 0
			e.past = 0
			e.age = 0 // "age is reset to zero whenever the branch is
			// determined as not being a regular loop"
		}
		return
	}
	// Loop exit.
	switch {
	case e.past == 0:
		// First completed execution: learn the trip count.
		e.past = e.current
		e.conf = 1
	case e.current == e.past:
		if e.conf < p.cfg.ConfMax {
			e.conf++
		}
	default:
		// Exit at a different count: restart learning.
		e.past = e.current
		e.conf = 0
		e.age = 0
	}
	e.current = 0
}

// Allocate installs an entry for a mispredicted branch: the candidate ways
// are inspected; a way with age 0 is replaced (age reset to max), other
// candidates age down (the paper's replacement policy).
func (p *Predictor) Allocate(pc uint64, taken bool) {
	tag := p.tagOf(pc)
	// Already present?
	for w := 0; w < p.cfg.Ways; w++ {
		s := p.setIndex(pc, w)
		if e := &p.sets[s][w]; e.valid && e.tag == tag {
			return
		}
	}
	for w := 0; w < p.cfg.Ways; w++ {
		s := p.setIndex(pc, w)
		e := &p.sets[s][w]
		if !e.valid || e.age == 0 {
			*e = entry{tag: tag, dir: taken, age: p.cfg.AgeMax, valid: true}
			p.stats.RecordWrite(true)
			return
		}
	}
	// No replaceable way: age the candidates.
	for w := 0; w < p.cfg.Ways; w++ {
		s := p.setIndex(pc, w)
		e := &p.sets[s][w]
		if e.age > 0 {
			e.age--
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
