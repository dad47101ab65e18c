package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func run(t *testing.T, src string) (*Machine, int64) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, 0)
	for !m.Halted && m.Count < 1_000_000 {
		if err := m.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Halted {
		t.Fatal("program did not halt")
	}
	return m, m.Count
}

func TestArithmetic(t *testing.T) {
	m, _ := run(t, `
        li   $t0, 7
        li   $t1, 3
        add  $s0, $t0, $t1     # 10
        sub  $s1, $t0, $t1     # 4
        mul  $s2, $t0, $t1     # 21
        div  $s3, $t0, $t1     # 2
        rem  $s4, $t0, $t1     # 1
        and  $s5, $t0, $t1     # 3
        or   $s6, $t0, $t1     # 7
        xor  $s7, $t0, $t1     # 4
        halt
`)
	want := map[isa.Reg]int64{
		isa.S0: 10, isa.S1: 4, isa.S2: 21, isa.S3: 2,
		isa.S4: 1, isa.S5: 3, isa.S6: 7, isa.S7: 4,
	}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("%v = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestDivisionByZeroIsZero(t *testing.T) {
	m, _ := run(t, `
        li  $t0, 5
        div $s0, $t0, $zero
        rem $s1, $t0, $zero
        halt
`)
	if m.Regs[isa.S0] != 0 || m.Regs[isa.S1] != 0 {
		t.Fatalf("div/rem by zero must produce 0")
	}
}

func TestShiftsAndComparisons(t *testing.T) {
	m, _ := run(t, `
        li   $t0, -8
        sra  $s0, $t0, 1       # -4
        srl  $s1, $t0, 60      # 15
        sll  $s2, $t0, 1       # -16
        slt  $s3, $t0, $zero   # 1
        sltu $s4, $t0, $zero   # 0 (huge unsigned)
        slti $s5, $t0, -7      # 1
        halt
`)
	if m.Regs[isa.S0] != -4 || m.Regs[isa.S1] != 15 || m.Regs[isa.S2] != -16 {
		t.Fatalf("shifts wrong: %d %d %d", m.Regs[isa.S0], m.Regs[isa.S1], m.Regs[isa.S2])
	}
	if m.Regs[isa.S3] != 1 || m.Regs[isa.S4] != 0 || m.Regs[isa.S5] != 1 {
		t.Fatalf("comparisons wrong")
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	m, _ := run(t, `
        li   $zero, 99
        addi $zero, $zero, 5
        move $s0, $zero
        halt
`)
	if m.Regs[isa.Zero] != 0 || m.Regs[isa.S0] != 0 {
		t.Fatalf("$zero was written")
	}
}

func TestMemorySignExtension(t *testing.T) {
	m, _ := run(t, `
        li   $t0, 0x100000
        li   $t1, -1
        sb   $t1, 0($t0)
        lb   $s0, 0($t0)       # -1
        lbu  $s1, 0($t0)       # 255
        li   $t2, 0x8000
        sh   $t2, 8($t0)
        lh   $s2, 8($t0)       # -32768
        li   $t3, 0x80000000
        sw   $t3, 16($t0)
        lw   $s3, 16($t0)      # negative
        sd   $t1, 24($t0)
        ld   $s4, 24($t0)      # -1
        halt
`)
	if m.Regs[isa.S0] != -1 || m.Regs[isa.S1] != 255 {
		t.Fatalf("byte loads wrong: %d %d", m.Regs[isa.S0], m.Regs[isa.S1])
	}
	if m.Regs[isa.S2] != -32768 {
		t.Fatalf("lh sign extension wrong: %d", m.Regs[isa.S2])
	}
	if m.Regs[isa.S3] != -2147483648 {
		t.Fatalf("lw sign extension wrong: %d", m.Regs[isa.S3])
	}
	if m.Regs[isa.S4] != -1 {
		t.Fatalf("ld wrong: %d", m.Regs[isa.S4])
	}
}

func TestLoop(t *testing.T) {
	m, _ := run(t, `
        li   $t0, 0
        li   $t1, 10
loop:   addi $t0, $t0, 1
        blt  $t0, $t1, loop
        halt
`)
	if m.Regs[isa.T0] != 10 {
		t.Fatalf("loop result = %d, want 10", m.Regs[isa.T0])
	}
}

func TestCallAndReturn(t *testing.T) {
	m, _ := run(t, `
        .func main
main:   li   $a0, 20
        jal  double
        move $s0, $v0
        halt
        .func double
double: add  $v0, $a0, $a0
        ret
`)
	if m.Regs[isa.S0] != 40 {
		t.Fatalf("call result = %d, want 40", m.Regs[isa.S0])
	}
}

func TestRecursion(t *testing.T) {
	// fib(10) = 55 via naive recursion.
	m, _ := run(t, `
        .func main
main:   li   $a0, 10
        jal  fib
        move $s0, $v0
        halt
        .func fib
fib:    slti $t0, $a0, 2
        beq  $t0, $zero, fib_rec
        move $v0, $a0
        ret
fib_rec:
        addi $sp, $sp, -24
        sd   $ra, 0($sp)
        sd   $a0, 8($sp)
        addi $a0, $a0, -1
        jal  fib
        sd   $v0, 16($sp)
        ld   $a0, 8($sp)
        addi $a0, $a0, -2
        jal  fib
        ld   $t1, 16($sp)
        add  $v0, $v0, $t1
        ld   $ra, 0($sp)
        addi $sp, $sp, 24
        ret
`)
	if m.Regs[isa.S0] != 55 {
		t.Fatalf("fib(10) = %d, want 55", m.Regs[isa.S0])
	}
}

func TestIndirectJump(t *testing.T) {
	m, _ := run(t, `
        .data
table:  .word8 case0, case1
        .text
main:   la   $t0, table
        ld   $t1, 8($t0)       # case1
        jr   $t1
        .targets case0, case1
case0:  li   $s0, 100
        halt
case1:  li   $s0, 200
        halt
`)
	if m.Regs[isa.S0] != 200 {
		t.Fatalf("indirect jump result = %d, want 200", m.Regs[isa.S0])
	}
}

func TestTraceRecording(t *testing.T) {
	p, err := asm.Assemble(`
        li   $t0, 2
loop:   addi $t0, $t0, -1
        bgtz $t0, loop
        sd   $t0, 0($sp)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// li, addi, bgtz(taken), addi, bgtz(nt), sd, halt
	if tr.Len() != 7 {
		t.Fatalf("trace length = %d, want 7", tr.Len())
	}
	b1 := &tr.Entries[2]
	if !b1.IsCondBranch() || !b1.Taken() {
		t.Fatalf("first branch not recorded as taken")
	}
	if b1.Next != tr.Entries[1].PC {
		t.Fatalf("taken branch Next wrong")
	}
	b2 := &tr.Entries[4]
	if !b2.IsCondBranch() || b2.Taken() {
		t.Fatalf("second branch not recorded as not-taken")
	}
	st := &tr.Entries[5]
	if !st.IsStore() || st.MemW != 8 {
		t.Fatalf("store entry wrong: %+v", st)
	}
	if h := &tr.Entries[6]; h.Op != isa.OpHALT || h.Next != h.PC {
		t.Fatalf("halt entry wrong: %+v", h)
	}
}

func TestRunErrors(t *testing.T) {
	p, err := asm.Assemble("nop\n") // falls off the end
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, Config{}); err == nil {
		t.Fatalf("running off the code segment must error")
	}

	p2, err := asm.Assemble("loop: j loop\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p2, Config{MaxInstrs: 100}); err == nil {
		t.Fatalf("instruction cap must error without halt")
	}
}

func TestDeterminism(t *testing.T) {
	p, err := asm.Assemble(`
        li   $s7, 12345
        li   $t0, 50
loop:   sll  $t1, $s7, 13
        xor  $s7, $s7, $t1
        srl  $t1, $s7, 7
        xor  $s7, $s7, $t1
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatalf("nondeterministic trace length")
	}
	for i := range tr1.Entries {
		if tr1.Entries[i] != tr2.Entries[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

func TestMemoryQuick(t *testing.T) {
	// Property: a write of any width followed by a read of the same width
	// at the same address returns the stored low bytes.
	prop := func(addr uint32, v int64, w uint8) bool {
		m := NewMemory()
		width := []int{1, 2, 4, 8}[w%4]
		m.Write(uint64(addr), width, uint64(v))
		got := m.Read(uint64(addr), width)
		mask := ^uint64(0)
		if width < 8 {
			mask = (1 << (8 * width)) - 1
		}
		return got == uint64(v)&mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // straddles the first page boundary
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Fatalf("cross-page read = %x", got)
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2 pages", m.Footprint())
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	m := NewMemory()
	if m.Read(0xdeadbeef, 8) != 0 {
		t.Fatalf("unwritten memory must read zero")
	}
	if m.Footprint() != 0 {
		t.Fatalf("reads must not allocate pages")
	}
}

func TestCheckAcceptsOwnTrace(t *testing.T) {
	p, err := asm.Assemble(`
        li   $t9, 50
loop:   addi $t9, $t9, -1
        sd   $t9, 0($sp)
        bgtz $t9, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, tr); err != nil {
		t.Fatalf("architectural check rejected a genuine trace: %v", err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	p, err := asm.Assemble(`
        li   $t9, 20
loop:   addi $t9, $t9, -1
        sd   $t9, 0($sp)
        bgtz $t9, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a memory address mid-trace.
	for i := range tr.Entries {
		if tr.Entries[i].IsStore() && i > 5 {
			tr.Entries[i].Addr ^= 0x40
			break
		}
	}
	if err := Check(p, tr); err == nil {
		t.Fatalf("architectural check accepted a corrupted trace")
	}
}

func TestCheckDetectsWrongDirection(t *testing.T) {
	p, err := asm.Assemble(`
        li   $t9, 20
loop:   addi $t9, $t9, -1
        bgtz $t9, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a branch direction flag.
	for i := range tr.Entries {
		if tr.Entries[i].IsCondBranch() {
			tr.Entries[i].Flags ^= trace.FlagTaken
			break
		}
	}
	if err := Check(p, tr); err == nil {
		t.Fatalf("architectural check accepted a flipped branch")
	}
}

func TestRunPublishesMetrics(t *testing.T) {
	p, err := asm.Assemble(`
        li   $t0, 3
        li   $t1, 0
loop:   sw   $t1, 0($gp)
        lw   $t2, 0($gp)
        add  $t1, $t1, $t2
        addi $t0, $t0, -1
        bgtz $t0, loop
        jal  sub
        halt
sub:    jr   $ra
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr, err := Run(p, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.GaugeValue("emu.retired"); !ok || got != int64(tr.Len()) {
		t.Fatalf("emu.retired = %d,%v, want %d", got, ok, tr.Len())
	}
	want := map[string]int64{
		"emu.loads":          3,
		"emu.stores":         3,
		"emu.cond_branches":  3,
		"emu.taken_branches": 2,
		"emu.calls":          1,
		"emu.returns":        1,
	}
	for name, w := range want {
		if got, ok := reg.CounterValue(name); !ok || got != w {
			t.Errorf("%s = %d,%v, want %d", name, got, ok, w)
		}
	}
	// With trace recording off, only the retirement gauge is available.
	reg2 := telemetry.NewRegistry()
	if _, err := Run(p, Config{Metrics: reg2, NoTrace: true}); err != nil {
		t.Fatal(err)
	}
	if got, ok := reg2.GaugeValue("emu.retired"); !ok || got != int64(tr.Len()) {
		t.Fatalf("NoTrace emu.retired = %d,%v", got, ok)
	}
	if _, ok := reg2.CounterValue("emu.loads"); ok {
		t.Fatalf("NoTrace run should not publish trace-derived counters")
	}
}
