package trace

// External-trace ingestion: parsers for the common text trace formats
// so real program traces run through the same matrix as the synthetic
// suite. Converted traces carry only the conditional branches (the
// simulator models conditional direction prediction); calls, returns
// and jumps are counted for the conversion report but not emitted.
// OpsBefore is synthesised per-PC the same way the generator does, so
// MPKI denominators are comparable across synthetic and external
// traces.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bitutil"
)

// ConvertStats reports what a conversion consumed and what it kept.
type ConvertStats struct {
	Lines       int // non-blank, non-comment input lines
	Conditional int // conditional branches emitted
	Calls       int // call records skipped
	Returns     int // return records skipped
	Jumps       int // unconditional jump records skipped
	Other       int // unrecognised-type records skipped
}

// ConvertFormats lists the supported external formats.
func ConvertFormats() []string { return []string{"cbp", "champsim"} }

// Convert parses an external text trace in the given format and
// returns it as a Trace named name (category "EXT").
func Convert(r io.Reader, format, name string) (*Trace, ConvertStats, error) {
	switch format {
	case "cbp":
		return ConvertCBP(r, name)
	case "champsim":
		return ConvertChampSim(r, name)
	default:
		return nil, ConvertStats{}, fmt.Errorf("trace: unknown convert format %q (formats: %s)",
			format, strings.Join(ConvertFormats(), ", "))
	}
}

// synthOps synthesises a per-PC µop count matching the synthetic
// generator's distribution, so external traces get comparable
// per-kilo-instruction denominators.
func synthOps(pc uint64) uint8 { return uint8(2 + bitutil.Mix64(pc)%6) }

// ConvertCBP parses the CBP-style text format: one conditional branch
// per line as `<pc> <T|N|1|0>`, PC in hex (with or without 0x). Blank
// lines and lines starting with '#' are skipped.
func ConvertCBP(r io.Reader, name string) (*Trace, ConvertStats, error) {
	tb := NewBuilder(name, "EXT", 0)
	var st ConvertStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st.Lines++
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, st, fmt.Errorf("trace: cbp line %d: want '<pc> <T|N>', got %q", lineNo, line)
		}
		pc, err := parsePC(fields[0], 16)
		if err != nil {
			return nil, st, fmt.Errorf("trace: cbp line %d: bad pc %q: %w", lineNo, fields[0], err)
		}
		taken, err := parseDir(fields[1])
		if err != nil {
			return nil, st, fmt.Errorf("trace: cbp line %d: %w", lineNo, err)
		}
		st.Conditional++
		tb.Add(Branch{PC: pc, Taken: taken, OpsBefore: synthOps(pc)})
	}
	if err := sc.Err(); err != nil {
		return nil, st, fmt.Errorf("trace: cbp line %d: %w", lineNo, err)
	}
	return tb.Trace(), st, nil
}

// ConvertChampSim parses the ChampSim-style text format: one branch
// per line as `<pc> <type> <taken>`, where type is B (conditional,
// kept), C (call), R (return), J (jump) — non-conditional records are
// counted and skipped. PC is decimal or 0x-hex; taken is T/N/1/0.
func ConvertChampSim(r io.Reader, name string) (*Trace, ConvertStats, error) {
	tb := NewBuilder(name, "EXT", 0)
	var st ConvertStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st.Lines++
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, st, fmt.Errorf("trace: champsim line %d: want '<pc> <type> <taken>', got %q", lineNo, line)
		}
		switch strings.ToUpper(fields[1]) {
		case "B":
			pc, err := parsePC(fields[0], 10)
			if err != nil {
				return nil, st, fmt.Errorf("trace: champsim line %d: bad pc %q: %w", lineNo, fields[0], err)
			}
			taken, err := parseDir(fields[2])
			if err != nil {
				return nil, st, fmt.Errorf("trace: champsim line %d: %w", lineNo, err)
			}
			st.Conditional++
			tb.Add(Branch{PC: pc, Taken: taken, OpsBefore: synthOps(pc)})
		case "C":
			st.Calls++
		case "R":
			st.Returns++
		case "J":
			st.Jumps++
		default:
			st.Other++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, st, fmt.Errorf("trace: champsim line %d: %w", lineNo, err)
	}
	return tb.Trace(), st, nil
}

// parsePC parses a PC in defaultBase, honouring an explicit 0x prefix.
func parsePC(s string, defaultBase int) (uint64, error) {
	base := defaultBase
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	return strconv.ParseUint(s, base, 64)
}

// parseDir parses a branch direction token.
func parseDir(s string) (bool, error) {
	switch strings.ToUpper(s) {
	case "T", "1":
		return true, nil
	case "N", "0":
		return false, nil
	default:
		return false, fmt.Errorf("bad direction %q (want T, N, 1 or 0)", s)
	}
}
