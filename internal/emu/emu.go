// Package emu implements the functional (architectural) emulator for the
// repository's MIPS-like ISA. It plays the role of the paper's architectural
// simulator: it defines correct execution, and its retired instruction
// stream is the dynamic trace that drives the timing models and trains the
// dynamic reconvergence predictor.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config controls one emulation run.
type Config struct {
	// MaxInstrs caps the number of retired instructions (0 means the
	// DefaultMaxInstrs safety cap). The paper runs 100M instructions per
	// benchmark; the workloads here are sized to finish under the cap.
	MaxInstrs int
	// StackTop initializes $sp; 0 selects isa.DefaultStackTop.
	StackTop uint64
	// NoTrace disables trace recording: Run returns a nil trace. The zero
	// value records.
	NoTrace bool
	// Metrics, when non-nil, receives the emu.* functional-execution
	// counters (docs/OBSERVABILITY.md) once the run finishes. The stepping
	// loop is untouched: counts are derived from the retired trace, so a
	// nil registry costs nothing.
	Metrics *telemetry.Registry
	// OS handles syscall instructions. Nil makes OpSYSCALL an
	// architectural fault — the synthetic workloads never execute one.
	OS SyscallHandler
	// Segments, when non-nil, restricts data accesses to the mapped
	// regions; out-of-bounds loads and stores fault with the PC, effective
	// address, and segment map in the error. Nil leaves the sparse address
	// space unrestricted.
	Segments []Segment
}

// SyscallHandler services OpSYSCALL instructions. The handler reads the
// service number from $v0 and arguments from $a0/$a1 (and program memory),
// and returns the value the emulator writes back to $v0. It may halt the
// machine (exit). To keep runs byte-reproducible and cacheable, a handler
// must be deterministic: internal/sysos implements one over preloaded
// stdin and captured output.
type SyscallHandler interface {
	Syscall(m *Machine) (int64, error)
}

// DefaultMaxInstrs is the safety cap on retired instructions.
const DefaultMaxInstrs = 4_000_000

// Machine is the architectural state of one emulated program.
type Machine struct {
	Prog   *isa.Program
	Regs   [isa.NumRegs]int64
	Mem    *Memory
	PC     uint64
	Halted bool
	Count  int64 // retired instructions
	// OS services syscall instructions; nil faults on OpSYSCALL.
	OS SyscallHandler
	// Segs, when non-nil, bounds-checks every data access (see Config.Segments).
	Segs []Segment

	code []decoded // Prog.Code, predecoded by New
}

// decoded is one predecoded static instruction: the instruction itself and
// the fields of its trace entry that every execution of it shares, so a
// step only fills in what the execution decides (Next, Addr, FlagTaken).
type decoded struct {
	inst isa.Inst
	tmpl trace.Entry // PC, Op, Dst, Srcs, NSrc, MemW and the static flags
}

// predecode builds the decode table of p, parallel to p.Code.
func predecode(p *isa.Program) []decoded {
	code := make([]decoded, len(p.Code))
	for i, inst := range p.Code {
		e := trace.Entry{PC: p.PCOf(i), Op: inst.Op, MemW: uint8(inst.MemWidth())}
		if d, ok := inst.Dst(); ok {
			e.Dst = d
			e.Flags |= trace.FlagHasDst
		}
		var srcs [4]isa.Reg
		ss := inst.Srcs(srcs[:0])
		// The ISA has at most two register sources.
		for k, r := range ss {
			if k < 2 {
				e.Srcs[k] = r
			}
		}
		e.NSrc = uint8(len(ss))
		switch {
		case inst.IsLoad():
			e.Flags |= trace.FlagLoad
		case inst.IsStore():
			e.Flags |= trace.FlagStore
		case inst.IsCondBranch():
			e.Flags |= trace.FlagCondBranch
		case inst.Op == isa.OpJAL:
			e.Flags |= trace.FlagCall
		case inst.Op == isa.OpJR:
			e.Flags |= trace.FlagIndirect
			if inst.IsReturn() {
				e.Flags |= trace.FlagReturn
			}
		case inst.Op == isa.OpJALR:
			e.Flags |= trace.FlagCall | trace.FlagIndirect
		}
		code[i] = decoded{inst: inst, tmpl: e}
	}
	return code
}

// New creates a machine with the program image loaded and the ABI state
// (entry PC, stack pointer, return address) initialized. The return address
// is set to a halt-trampoline so that a bare `ret` from main halts cleanly.
func New(p *isa.Program, stackTop uint64) *Machine {
	if stackTop == 0 {
		stackTop = isa.DefaultStackTop
	}
	m := &Machine{Prog: p, Mem: NewMemory(), PC: p.Entry, code: predecode(p)}
	m.Mem.LoadImage(p.DataBase, p.Data)
	m.Regs[isa.SP] = int64(stackTop)
	m.Regs[isa.GP] = int64(p.DataBase)
	return m
}

// Step executes one instruction and appends its trace entry to tr (when tr
// is non-nil). It returns an error on architectural faults: executing
// outside the code segment or unknown opcodes.
func (m *Machine) Step(tr *trace.Trace) error {
	if m.Halted {
		return nil
	}
	var e trace.Entry
	if err := m.step(&e); err != nil || tr == nil {
		return err
	}
	tr.Entries = append(tr.Entries, e)
	return nil
}

// step executes one instruction of a running machine and writes its trace
// entry to e. On a fault the machine state is unchanged apart from what a
// syscall handler did, and e must be ignored.
func (m *Machine) step(e *trace.Entry) error {
	off := m.PC - m.Prog.CodeBase
	if off%isa.InstSize != 0 || off/isa.InstSize >= uint64(len(m.code)) {
		return fmt.Errorf("emu: PC 0x%x outside code segment [0x%x,0x%x) after %d instructions",
			m.PC, m.Prog.CodeBase, m.Prog.CodeBase+uint64(len(m.Prog.Code))*isa.InstSize, m.Count)
	}
	d := &m.code[off/isa.InstSize]
	inst := &d.inst
	*e = d.tmpl
	pc := m.PC
	next := pc + isa.InstSize

	rs, rt := m.Regs[inst.Rs], m.Regs[inst.Rt]
	var result int64
	writeDst := false

	switch inst.Op {
	case isa.OpNOP:
	case isa.OpHALT:
		m.Halted = true
	case isa.OpADD:
		result, writeDst = rs+rt, true
	case isa.OpSUB:
		result, writeDst = rs-rt, true
	case isa.OpAND:
		result, writeDst = rs&rt, true
	case isa.OpOR:
		result, writeDst = rs|rt, true
	case isa.OpXOR:
		result, writeDst = rs^rt, true
	case isa.OpNOR:
		result, writeDst = ^(rs | rt), true
	case isa.OpSLT:
		result, writeDst = b2i(rs < rt), true
	case isa.OpSLTU:
		result, writeDst = b2i(uint64(rs) < uint64(rt)), true
	case isa.OpSLLV:
		result, writeDst = rs<<(uint64(rt)&63), true
	case isa.OpSRLV:
		result, writeDst = int64(uint64(rs)>>(uint64(rt)&63)), true
	case isa.OpSRAV:
		result, writeDst = rs>>(uint64(rt)&63), true
	case isa.OpMUL:
		result, writeDst = rs*rt, true
	case isa.OpDIV:
		switch rt {
		case 0:
			result = 0
		case -1:
			// MinInt64 / -1 overflows; the ISA wraps (and Go would panic).
			result = -rs
		default:
			result = rs / rt
		}
		writeDst = true
	case isa.OpREM:
		switch rt {
		case 0, -1: // x % -1 is 0 for every x, incl. the Go-panicking MinInt64
			result = 0
		default:
			result = rs % rt
		}
		writeDst = true
	case isa.OpADDI:
		result, writeDst = rs+inst.Imm, true
	case isa.OpANDI:
		result, writeDst = rs&inst.Imm, true
	case isa.OpORI:
		result, writeDst = rs|inst.Imm, true
	case isa.OpXORI:
		result, writeDst = rs^inst.Imm, true
	case isa.OpSLTI:
		result, writeDst = b2i(rs < inst.Imm), true
	case isa.OpSLL:
		result, writeDst = rs<<(uint64(inst.Imm)&63), true
	case isa.OpSRL:
		result, writeDst = int64(uint64(rs)>>(uint64(inst.Imm)&63)), true
	case isa.OpSRA:
		result, writeDst = rs>>(uint64(inst.Imm)&63), true
	case isa.OpLUI:
		result, writeDst = inst.Imm<<16, true
	case isa.OpLI:
		result, writeDst = inst.Imm, true

	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLW, isa.OpLD:
		addr := uint64(rs + inst.Imm)
		w := int(e.MemW)
		if err := m.checkAccess(pc, addr, w, "load"); err != nil {
			return err
		}
		v := m.Mem.Read(addr, w)
		switch inst.Op {
		case isa.OpLB:
			result = int64(int8(v))
		case isa.OpLBU:
			result = int64(v)
		case isa.OpLH:
			result = int64(int16(v))
		case isa.OpLW:
			result = int64(int32(v))
		case isa.OpLD:
			result = int64(v)
		}
		writeDst = true
		e.Addr = addr

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		addr := uint64(rs + inst.Imm)
		w := int(e.MemW)
		if err := m.checkAccess(pc, addr, w, "store"); err != nil {
			return err
		}
		m.Mem.Write(addr, w, uint64(rt))
		e.Addr = addr

	case isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ, isa.OpBLTZ, isa.OpBGEZ:
		taken := false
		switch inst.Op {
		case isa.OpBEQ:
			taken = rs == rt
		case isa.OpBNE:
			taken = rs != rt
		case isa.OpBLEZ:
			taken = rs <= 0
		case isa.OpBGTZ:
			taken = rs > 0
		case isa.OpBLTZ:
			taken = rs < 0
		case isa.OpBGEZ:
			taken = rs >= 0
		}
		if taken {
			e.Flags |= trace.FlagTaken
			next = uint64(inst.Imm)
		}

	case isa.OpJ:
		next = uint64(inst.Imm)
	case isa.OpJAL:
		m.Regs[isa.RA] = int64(next)
		next = uint64(inst.Imm)
	case isa.OpJR:
		next = uint64(rs)
	case isa.OpJALR:
		link := int64(next)
		next = uint64(rs)
		if inst.Rd != isa.Zero {
			m.Regs[inst.Rd] = link
		}

	case isa.OpSYSCALL:
		if m.OS == nil {
			return fmt.Errorf("emu: syscall %d at PC 0x%x (%s) with no OS attached",
				m.Regs[isa.V0], pc, m.Prog.SymbolFor(pc))
		}
		v, err := m.OS.Syscall(m)
		if err != nil {
			return fmt.Errorf("emu: PC 0x%x (%s): %w", pc, m.Prog.SymbolFor(pc), err)
		}
		m.Regs[isa.V0] = v

	default:
		return fmt.Errorf("emu: invalid opcode %v at PC 0x%x", inst.Op, pc)
	}

	if writeDst && inst.Rd != isa.Zero {
		m.Regs[inst.Rd] = result
	}
	if m.Halted {
		e.Next = pc
	} else {
		e.Next = next
	}
	m.PC = next
	m.Count++
	return nil
}

// Run executes the program to completion (halt) or to the instruction cap
// and returns the retired trace. On a fault it returns the trace retired
// before the faulting instruction along with the error.
func Run(p *isa.Program, cfg Config) (*trace.Trace, error) {
	max := cfg.MaxInstrs
	if max <= 0 {
		max = DefaultMaxInstrs
	}
	m := New(p, cfg.StackTop)
	m.OS = cfg.OS
	m.Segs = cfg.Segments
	var tr *trace.Trace
	var err error
	if cfg.NoTrace {
		var e trace.Entry
		for !m.Halted && m.Count < int64(max) && err == nil {
			err = m.step(&e)
		}
	} else {
		rec := recorder{cur: new(chunk)}
		for !m.Halted && m.Count < int64(max) && err == nil {
			if rec.n == chunkLen {
				rec.next()
			}
			// The slot only counts once its instruction retires.
			if err = m.step(&rec.cur[rec.n]); err == nil {
				rec.n++
			}
		}
		tr = &trace.Trace{Entries: rec.assemble()}
	}
	if err != nil {
		return tr, err
	}
	if cfg.Metrics != nil {
		publishMetrics(cfg.Metrics, m, tr)
	}
	if !m.Halted {
		return tr, fmt.Errorf("emu: instruction cap %d reached without halt (PC 0x%x)", max, m.PC)
	}
	return tr, nil
}

// chunkLen is the number of trace entries per recording chunk (128 KiB).
const chunkLen = 1 << 12

type chunk = [chunkLen]trace.Entry

// recorder collects a run's retired entries in fixed-size chunks, so a
// growing trace is never re-copied; assemble copies it once into a slice
// of exactly the retired length.
type recorder struct {
	full []*chunk // filled chunks, in retirement order
	cur  *chunk   // the chunk being filled
	n    int      // entries used in cur
}

// next retires the full current chunk and starts a fresh one.
func (r *recorder) next() {
	r.full = append(r.full, r.cur)
	r.cur, r.n = new(chunk), 0
}

// assemble returns the recorded entries as one slice.
func (r *recorder) assemble() []trace.Entry {
	out := make([]trace.Entry, len(r.full)*chunkLen+r.n)
	at := 0
	for _, c := range r.full {
		at += copy(out[at:], c[:])
	}
	copy(out[at:], r.cur[:r.n])
	return out
}

// publishMetrics counts the retired instruction mix into reg. With trace
// recording off only the retirement count is available.
func publishMetrics(reg *telemetry.Registry, m *Machine, tr *trace.Trace) {
	reg.Gauge("emu.retired").Set(m.Count)
	if tr == nil {
		return
	}
	var loads, stores, cond, taken, calls, returns, indirect int64
	for i := range tr.Entries {
		e := &tr.Entries[i]
		switch {
		case e.IsLoad():
			loads++
		case e.IsStore():
			stores++
		case e.IsCondBranch():
			cond++
			if e.Taken() {
				taken++
			}
		}
		if e.IsCall() {
			calls++
		}
		if e.IsReturn() {
			returns++
		}
		if e.IsIndirect() {
			indirect++
		}
	}
	reg.Counter("emu.loads").Add(loads)
	reg.Counter("emu.stores").Add(stores)
	reg.Counter("emu.cond_branches").Add(cond)
	reg.Counter("emu.taken_branches").Add(taken)
	reg.Counter("emu.calls").Add(calls)
	reg.Counter("emu.returns").Add(returns)
	reg.Counter("emu.indirect_jumps").Add(indirect)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
