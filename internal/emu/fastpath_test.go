package emu

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// TestMemoryMatchesByteMapModel drives Memory with random 1-, 2-, 4- and
// 8-byte reads and writes — addresses clustered at page edges, with reads
// of never-written pages mixed in — and checks every read against a plain
// byte map. After every read, Footprint must equal the number of pages the
// model has written: a page cache that went stale, or that cached a miss,
// fails here.
func TestMemoryMatchesByteMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Pages that share one page-cache slot, so the cache must tell them
	// apart by page number.
	var collide []uint64
	for k := uint64(0x100); len(collide) < 4; k++ {
		if tlbSlot(k) == tlbSlot(0x100) {
			collide = append(collide, k)
		}
	}
	// Pages the test writes, and pages it only reads (page-crossing writes
	// at the end of a written page still reach some of them).
	written := append([]uint64{0, 1, 2, 0x7fe, 0x7ff, 1 << 30}, collide[:3]...)
	unwritten := []uint64{3, 0x800, 1 << 40, collide[3]}
	addr := func(pages []uint64) uint64 {
		base := pages[rng.Intn(len(pages))] << pageBits
		switch rng.Intn(3) {
		case 0: // the first bytes of the page
			return base + uint64(rng.Intn(8))
		case 1: // the last bytes, so wide accesses cross into the next page
			return base + pageSize - 1 - uint64(rng.Intn(8))
		}
		return base + uint64(rng.Intn(pageSize))
	}
	widths := []int{1, 2, 4, 8}

	m := NewMemory()
	ref := map[uint64]byte{}
	refPages := map[uint64]bool{}
	for op := 0; op < 200_000; op++ {
		w := widths[rng.Intn(len(widths))]
		switch rng.Intn(5) {
		case 0, 1: // write
			a, v := addr(written), rng.Uint64()
			if w == 1 && rng.Intn(2) == 0 {
				m.Store8(a, byte(v))
			} else {
				m.Write(a, w, v)
			}
			for i := 0; i < w; i++ {
				ref[a+uint64(i)] = byte(v >> (8 * i))
				refPages[(a+uint64(i))>>pageBits] = true
			}
			continue
		default: // read, of a written page or of one only reached by page-crossing writes
			a := addr(written)
			if rng.Intn(3) == 0 {
				a = addr(unwritten)
			}
			var want uint64
			for i := 0; i < w; i++ {
				want |= uint64(ref[a+uint64(i)]) << (8 * i)
			}
			got := m.Read(a, w)
			if w == 1 && rng.Intn(2) == 0 {
				got = uint64(m.Load8(a))
			}
			if got != want {
				t.Fatalf("op %d: read(0x%x, %d) = 0x%x, model 0x%x", op, a, w, got, want)
			}
		}
		if m.Footprint() != len(refPages) {
			t.Fatalf("op %d: footprint = %d pages, model wrote %d", op, m.Footprint(), len(refPages))
		}
	}
}

// TestPredecodeMatchesInst: every retired entry's static fields are the
// ones isa.Inst derives for the instruction at its PC.
func TestPredecodeMatchesInst(t *testing.T) {
	p, err := asm.Assemble(`
        .func main
main:   li   $t0, 3
        lui  $t1, 1
        la   $s0, buf
loop:   add  $t2, $t0, $t1
        sub  $t2, $t2, $zero
        slt  $t3, $t2, $t0
        sltu $t3, $t2, $t0
        sllv $t4, $t0, $t3
        srlv $t4, $t4, $t3
        srav $t4, $t4, $t3
        nor  $t5, $t4, $t0
        mul  $t5, $t5, $t0
        div  $t6, $t5, $t0
        rem  $t6, $t5, $t0
        andi $t7, $t6, 7
        ori  $t7, $t7, 8
        xori $t7, $t7, 1
        slti $t8, $t7, 4
        sll  $t8, $t8, 2
        srl  $t8, $t8, 1
        sra  $t8, $t8, 1
        sb   $t0, 0($s0)
        sh   $t0, 2($s0)
        sw   $t0, 4($s0)
        sd   $t0, 8($s0)
        lb   $a0, 0($s0)
        lbu  $a0, 0($s0)
        lh   $a0, 2($s0)
        lw   $a0, 4($s0)
        ld   $a0, 8($s0)
        li   $zero, 5
        jal  leaf
        la   $t9, leaf
        jalr $ra, $t9
        beq  $t0, $zero, out
        bne  $t0, $zero, next
next:   blez $t0, out
        bltz $t0, out
        bgez $zero, next2
next2:  addi $t0, $t0, -1
        bgtz $t0, loop
out:    nop
        j    done
done:   halt
        .func leaf
leaf:   ret
        .data
buf:    .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[isa.Op]bool{}
	for i := range tr.Entries {
		e := &tr.Entries[i]
		inst, _ := p.InstAt(e.PC)
		seen[inst.Op] = true
		var want trace.Entry
		if d, ok := inst.Dst(); ok {
			want.Dst = d
		}
		ss := inst.Srcs(nil)
		copy(want.Srcs[:], ss)
		if e.Op != inst.Op || e.Dst != want.Dst || e.HasDst() != (e.Dst != 0) ||
			e.Srcs != want.Srcs || int(e.NSrc) != len(ss) || int(e.MemW) != inst.MemWidth() ||
			e.IsLoad() != inst.IsLoad() || e.IsStore() != inst.IsStore() ||
			e.IsCondBranch() != inst.IsCondBranch() || e.IsCall() != inst.IsCall() ||
			e.IsReturn() != inst.IsReturn() || e.IsIndirect() != inst.IsIndirectJump() {
			t.Fatalf("entry %d (%v): %+v", i, inst, *e)
		}
	}
	if len(seen) < 40 {
		t.Fatalf("program retired only %d distinct opcodes", len(seen))
	}
}

// loopProgram assembles a store loop of iters iterations: three retired
// instructions per iteration.
func loopProgram(t testing.TB, iters int) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(fmt.Sprintf(`
        li   $t9, %d
loop:   addi $t9, $t9, -1
        sd   $t9, 0($sp)
        bgtz $t9, loop
        halt
`, iters))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckAllocsIndependentOfLength: the architectural check replays into
// one reused entry, so a 10x longer trace allocates within a small
// constant of a short one.
func TestCheckAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	allocs := func(iters int) float64 {
		p := loopProgram(t, iters)
		tr, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := Check(p, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1_000), allocs(10_000)
	if long > short+4 {
		t.Fatalf("Check allocates %v objects on a 30k-entry trace, %v on a 3k-entry one", long, short)
	}
}

// TestRunAllocBytesPerInstr: Run records into fixed-size chunks and copies
// them once into a slice of the exact length, so it allocates about two
// trace entries per retired instruction. Growing one slice by appending
// allocated about 3.8 entries per instruction.
func TestRunAllocBytesPerInstr(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	p := loopProgram(t, 100_000)
	entry := float64(unsafe.Sizeof(trace.Entry{}))
	best := -1.0
	for i := 0; i < 3; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		tr, err := Run(p, Config{})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		perInstr := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(tr.Len())
		if best < 0 || perInstr < best {
			best = perInstr
		}
	}
	if best > 2.5*entry {
		t.Fatalf("Run allocates %.1f bytes per retired instruction (%.2f entries), want <= %.0f",
			best, best/entry, 2.5*entry)
	}
	t.Logf("Run allocates %.1f bytes per retired instruction (%.2f entries)", best, best/entry)
}

// TestRunChunkedTraceMatchesStep: a trace that spans several recording
// chunks assembles to exactly the entries Step appends one at a time.
func TestRunChunkedTraceMatchesStep(t *testing.T) {
	p := loopProgram(t, chunkLen) // three entries per iteration: three chunks and a tail
	m := New(p, 0)
	want := &trace.Trace{}
	for !m.Halted {
		if err := m.Step(want); err != nil {
			t.Fatal(err)
		}
	}
	if want.Len() <= 3*chunkLen {
		t.Fatalf("trace of %d entries does not fill three chunks", want.Len())
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.Entries, want.Entries) {
		t.Fatalf("Run trace (%d entries) differs from the stepped trace (%d entries)", tr.Len(), want.Len())
	}
}
