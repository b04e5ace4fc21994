package match

import (
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/rng"
)

// deltaScheduler is the incremental face (see Change) as a caller asserts
// it. The tests below find its implementers in the registry, so an arbiter
// that gains the face is covered without being named here.
type deltaScheduler interface {
	Algorithm
	ScheduleDelta(d *demand.Matrix, changed []Change) Matching
}

func deltaAlgorithms(t testing.TB, n int) map[string][2]deltaScheduler {
	t.Helper()
	out := map[string][2]deltaScheduler{}
	for _, name := range Names() {
		var pair [2]deltaScheduler
		for k := range pair {
			alg, err := New(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			pair[k], _ = alg.(deltaScheduler)
		}
		if pair[0] != nil {
			out[name] = pair
		}
	}
	if out["ilqf"][0] == nil {
		t.Fatal("ilqf lost its ScheduleDelta")
	}
	return out
}

// A delta script is a byte string of operations on one n-port matrix and a
// pair of arbiters — scratch, which calls Schedule every time, and delta,
// which is told what changed. Each operation is six bytes: an opcode, an
// input and an output (two bytes each, little-endian, taken mod n) and a
// value byte v.
//
//	write   cell (in, out) = (v%5)*1500 and list it — five depths, so zero
//	        crossings both ways and equal-depth ties are common
//	touch   list the cell without writing it (an unchanged entry)
//	delta   scratch.Schedule against delta.ScheduleDelta(listed cells)
//	scratch Schedule on both; the list is dropped, as the contract allows
//	reset   Reset on both, after v%8 unlisted writes; the list is dropped
//
// Listed cells carry the matrix's value at the time of the call, which is
// how a duplicate entry gets the same value twice.
const (
	opWrite = iota
	opTouch
	opDelta
	opScratch
	opReset
	opKinds
	opBytes = 6
)

// scriptCoverage counts what a script exercised.
type scriptCoverage struct {
	deltas, scratches, resets    int
	ups, downs, dups, touches    int
	ties, maxDegree, deltaCrowds int // deltaCrowds: delta calls with a column above ilqfStride
}

// runDeltaScript interprets script on a fresh n-port matrix, adding what
// it exercised to cov.
func runDeltaScript(t testing.TB, n int, scratch, delta deltaScheduler, script []byte, cov *scriptCoverage) {
	t.Helper()
	// A new matrix: whatever the arbiters cached describes another one.
	scratch.Reset()
	delta.Reset()
	d := demand.NewMatrix(n)
	degree := make([]int, n)
	var listed []Change
	write := func(i, j int, v int64) {
		old := d.At(i, j)
		switch {
		case old == 0 && v > 0:
			cov.ups++
			degree[j]++
		case old > 0 && v == 0:
			cov.downs++
			degree[j]--
		}
		d.Set(i, j, v)
		if degree[j] > cov.maxDegree {
			cov.maxDegree = degree[j]
		}
	}
	for pc := 0; pc+opBytes <= len(script); pc += opBytes {
		o := script[pc : pc+opBytes]
		op, v := o[0]%opKinds, int(o[5])
		i, j := (int(o[1])|int(o[2])<<8)%n, (int(o[3])|int(o[4])<<8)%n
		switch op {
		case opWrite, opTouch:
			if op == opWrite {
				write(i, j, int64(v%5)*1500)
			} else {
				cov.touches++
			}
			for _, l := range listed {
				if int(l.In) == i && int(l.Out) == j {
					cov.dups++
					break
				}
			}
			listed = append(listed, Change{In: int32(i), Out: int32(j)})
		case opDelta:
			crowded := false
			for k := range listed {
				l := &listed[k]
				l.Value = d.At(int(l.In), int(l.Out))
				col := d.ColBits(int(l.Out))
				for i2 := demand.NextBit(col, 0); i2 >= 0; i2 = demand.NextBit(col, i2+1) {
					if i2 != int(l.In) && l.Value > 0 && d.At(i2, int(l.Out)) == l.Value {
						cov.ties++
						break
					}
				}
				crowded = crowded || degree[l.Out] > ilqfStride
			}
			if crowded {
				cov.deltaCrowds++
			}
			want := scratch.Schedule(d)
			got := delta.ScheduleDelta(d, listed)
			if err := got.Validate(); err != nil {
				t.Fatalf("op %d: %v", pc/opBytes, err)
			}
			if !got.Equal(want) {
				t.Fatalf("op %d: ScheduleDelta over %d listed cells differs from Schedule\n got %v\nwant %v",
					pc/opBytes, len(listed), got, want)
			}
			cov.deltas++
			listed = listed[:0]
		case opScratch:
			if want, got := scratch.Schedule(d), delta.Schedule(d); !got.Equal(want) {
				t.Fatalf("op %d: two from-scratch schedules differ", pc/opBytes)
			}
			cov.scratches++
			listed = listed[:0]
		case opReset:
			for k := 0; k < v%8; k++ {
				write((i+k)%n, (j+3*k)%n, int64(1+(v+k)%5)*1500)
			}
			scratch.Reset()
			delta.Reset()
			cov.resets++
			listed = listed[:0]
		}
	}
}

// deltaScript generates a script for n ports from a seed: writes on a
// sparse graph of a few peers per port, one column (0) that every input in
// turn requests so its degree passes the mirror's initial stride, rewrites
// of recently written cells, touches, and mostly delta schedules with
// from-scratch calls and resets mixed in.
func deltaScript(n, ops int, seed uint64) []byte {
	r := rng.New(seed)
	script := make([]byte, 0, opBytes*ops)
	emit := func(op byte, i, j, v int) {
		script = append(script, op, byte(i), byte(i>>8), byte(j), byte(j>>8), byte(v))
	}
	recent := [][2]int{{1 % n, 0}}
	hot := 0
	for len(script) < opBytes*ops {
		switch k := r.Intn(20); {
		case k < 9: // a write on the sparse graph
			i := r.Intn(n)
			j := (i + 1 + r.Intn(5)) % n
			emit(opWrite, i, j, r.Intn(5))
			recent = append(recent, [2]int{i, j})
		case k < 11: // the crowded column
			hot = (hot + 1) % n
			emit(opWrite, hot, 0, 1+r.Intn(4))
		case k < 14: // rewrite or touch a recent cell: duplicates, ties, crossings
			c := recent[len(recent)-1-r.Intn(min(len(recent), 6))]
			if r.Intn(3) == 0 {
				emit(opTouch, c[0], c[1], 0)
			} else {
				emit(opWrite, c[0], c[1], r.Intn(5))
			}
		case k < 18:
			emit(opDelta, 0, 0, 0)
		case k < 19:
			emit(opScratch, 0, 0, 0)
		default:
			if r.Intn(6) == 0 {
				emit(opReset, r.Intn(n), r.Intn(n), r.Intn(256))
			} else {
				emit(opDelta, 0, 0, 0)
			}
		}
	}
	return script
}

// TestDeltaMatchesScratch holds every arbiter with the incremental face to
// its contract: whatever the change lists contain, ScheduleDelta returns
// what Schedule returns.
func TestDeltaMatchesScratch(t *testing.T) {
	for _, n := range []int{16, 128, 512} {
		for name, pair := range deltaAlgorithms(t, n) {
			var cov scriptCoverage
			for seed := uint64(1); seed <= 3; seed++ {
				runDeltaScript(t, n, pair[0], pair[1], deltaScript(n, 40*n, seed+uint64(n)), &cov)
			}
			t.Logf("%s n=%d: %+v", name, n, cov)
			if cov.deltas == 0 || cov.scratches == 0 || cov.resets == 0 || cov.ups == 0 || cov.downs == 0 ||
				cov.dups == 0 || cov.touches == 0 || cov.ties == 0 || cov.deltaCrowds == 0 || cov.maxDegree <= ilqfStride {
				t.Errorf("%s n=%d: scripts left a case out: %+v", name, n, cov)
			}
		}
	}
}

// FuzzDeltaChangeList runs arbitrary delta scripts (see runDeltaScript) on
// a small fabric, seeded with the generator's own output. Under plain
// `go test` the seeds run as regression cases.
func FuzzDeltaChangeList(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint8(seed*5), deltaScript(2+int(seed*5), 400, seed))
	}
	f.Add(uint8(14), []byte{
		opWrite, 1, 0, 0, 0, 2, opDelta, 0, 0, 0, 0, 0,
		opWrite, 1, 0, 0, 0, 0, opWrite, 1, 0, 0, 0, 3, opDelta, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		n := 2 + int(size)%95
		for _, pair := range deltaAlgorithms(t, n) {
			runDeltaScript(t, n, pair[0], pair[1], script, new(scriptCoverage))
		}
	})
}
