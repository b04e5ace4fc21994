package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Compare mode: diff a fresh benchmark run against the committed
// baseline and fail on regression. The contract is asymmetric by
// design — the 0-alloc guarantees are exact while timing is noisy:
//
//   - any allocs/op increase over the baseline fails outright;
//   - B/op may drift within -byte-noise bytes (sub-allocation jitter
//     from the runtime's size classes), more fails;
//   - ns/op may regress at most -tolerance (fractional), more fails;
//   - a baseline entry missing from the current run fails (a renamed
//     or deleted benchmark must update the baseline deliberately) —
//     unless it matches a -retired pattern, the explicit allowance for
//     exactly that deliberate step: the gate stays green while the PR
//     that renames or removes a benchmark is in flight, and the next
//     bench-json baseline rewrite drops the entry for good.
//
// New benchmarks absent from the baseline are reported but pass — they
// enter the contract when bench-json next rewrites the baseline.
//
// Machine-speed drift between the baseline recording and the gate run
// (a different box, frequency scaling, a co-tenant burst) is
// multiplicative and common to every benchmark, while a genuine
// regression is an outlier against the rest of the suite. When the run
// shares at least minNormalize entries with the baseline, each ns/op
// ratio is therefore divided by the suite-wide median ratio before the
// tolerance test, so a uniformly slower (or faster) machine does not
// push every entry toward the limit (or mask a real regression).

// minNormalize is the smallest shared-entry count at which the median
// ns/op ratio is a trustworthy estimate of machine drift. Below it the
// raw ratios are gated directly.
const minNormalize = 8

// loadBaseline reads a committed ledger. Files written before the stamp
// existed are a bare array of records; they load with an empty Env.
func loadBaseline(path string) (Ledger, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Ledger{}, err
	}
	var l Ledger
	if bytes.HasPrefix(bytes.TrimSpace(buf), []byte("[")) {
		err = json.Unmarshal(buf, &l.Benchmarks)
	} else {
		err = json.Unmarshal(buf, &l)
	}
	if err != nil {
		return Ledger{}, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// retiredMatch reports whether name matches one of the -retired
// patterns: an exact benchmark name, or a prefix when the pattern ends
// in '*' (BenchmarkMatch/rrm/* retires every sub-benchmark at once).
func retiredMatch(retired []string, name string) bool {
	for _, pat := range retired {
		if pat == "" {
			continue
		}
		if strings.HasSuffix(pat, "*") {
			if strings.HasPrefix(name, pat[:len(pat)-1]) {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}

// compare diffs current against baseline and returns the violations
// (empty = gate passes) and informational notes. retired holds the
// -retired patterns: baseline entries matching one may be absent from
// the run without failing the gate.
func compare(baseline, current []Record, tolerance float64, byteNoise int64, retired []string) (violations, notes []string) {
	cur := make(map[string]Record, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	drift, normalized := medianDrift(baseline, cur)
	if normalized {
		notes = append(notes,
			fmt.Sprintf("suite median ns/op drift %+.1f%%; ratios normalized before the tolerance test",
				100*(drift-1)))
	}
	for _, base := range baseline {
		got, ok := cur[base.Name]
		if !ok {
			if retiredMatch(retired, base.Name) {
				notes = append(notes,
					fmt.Sprintf("%s: retired (in the baseline, absent from this run; rewrite with bench-json to drop it)",
						base.Name))
				continue
			}
			violations = append(violations,
				fmt.Sprintf("%s: in the baseline but missing from this run (retire deliberately with -retired)", base.Name))
			continue
		}
		if base.AllocsOp >= 0 {
			switch {
			case got.AllocsOp < 0:
				violations = append(violations,
					fmt.Sprintf("%s: baseline has %d allocs/op but this run reported none (-benchmem missing?)",
						base.Name, base.AllocsOp))
			case got.AllocsOp > base.AllocsOp:
				violations = append(violations,
					fmt.Sprintf("%s: allocs/op %d -> %d (any increase fails)",
						base.Name, base.AllocsOp, got.AllocsOp))
			}
		}
		if base.BOp >= 0 && got.BOp > base.BOp+byteNoise {
			violations = append(violations,
				fmt.Sprintf("%s: B/op %d -> %d (over the %d-byte noise allowance)",
					base.Name, base.BOp, got.BOp, byteNoise))
		}
		if base.NsOp > 0 {
			ratio := got.NsOp / base.NsOp / drift
			if ratio > 1+tolerance {
				violations = append(violations,
					fmt.Sprintf("%s: ns/op %.4g -> %.4g (%+.1f%% vs suite drift, limit +%.0f%%)",
						base.Name, base.NsOp, got.NsOp,
						100*(ratio-1), 100*tolerance))
			}
		}
		delete(cur, base.Name)
	}
	for _, r := range current {
		if _, isNew := cur[r.Name]; isNew {
			notes = append(notes,
				fmt.Sprintf("%s: not in the baseline yet (passes; rewrite with bench-json to adopt)", r.Name))
		}
	}
	return violations, notes
}

// medianDrift estimates the multiplicative machine-speed drift between
// the baseline and the current run as the median of the per-benchmark
// ns/op ratios. It returns (1, false) — no normalization — when fewer
// than minNormalize entries are shared.
func medianDrift(baseline []Record, cur map[string]Record) (float64, bool) {
	var ratios []float64
	for _, base := range baseline {
		if got, ok := cur[base.Name]; ok && base.NsOp > 0 && got.NsOp > 0 {
			ratios = append(ratios, got.NsOp/base.NsOp)
		}
	}
	if len(ratios) < minNormalize {
		return 1, false
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid], true
	}
	return (ratios[mid-1] + ratios[mid]) / 2, true
}
