package ecu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// CPU is an AE32 core: a loosely-timed TLM initiator that fetches,
// decodes and executes one instruction per Step, annotating consumed
// time instead of synchronizing with the kernel (the caller owns the
// quantum keeper). Register r0 is hardwired to zero.
//
// Fault injection sites: FlipRegBit (SEU in the register file),
// FlipPCBit (SEU in the program counter), and everything reachable
// through the bus (instruction and data memory).
type CPU struct {
	name string
	// Bus is the instruction+data port.
	Bus *tlm.InitiatorSocket
	// CyclePeriod is the clock period; CPI the cycles per instruction
	// (memory latency comes from the bus on top).
	CyclePeriod sim.Time
	CPI         uint32
	// IRQVector is the interrupt entry point.
	IRQVector uint32
	// StoreHook observes every SW (lockstep comparators attach here).
	StoreHook func(addr, val uint32)

	regs    [16]uint32
	pc      uint32
	savedPC uint32
	inIRQ   bool
	pending bool
	halted  bool
	instrs  uint64
}

// NewCPU creates a core with a 100 MHz clock and CPI 1.
func NewCPU(name string) *CPU {
	return &CPU{
		name:        name,
		Bus:         tlm.NewInitiatorSocket(name + ".bus"),
		CyclePeriod: sim.NS(10),
		CPI:         1,
	}
}

// Name reports the core name.
func (c *CPU) Name() string { return c.name }

// Reset initializes the core to start execution at pc.
func (c *CPU) Reset(pc uint32) {
	c.regs = [16]uint32{}
	c.pc = pc
	c.savedPC = 0
	c.inIRQ = false
	c.pending = false
	c.halted = false
	c.instrs = 0
}

// PC reports the program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether the core executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Instructions reports the retired instruction count.
func (c *CPU) Instructions() uint64 { return c.instrs }

// Reg reads register i.
func (c *CPU) Reg(i int) uint32 {
	if i == 0 {
		return 0
	}
	return c.regs[i&0xf]
}

// SetReg writes register i (r0 writes are ignored).
func (c *CPU) SetReg(i int, v uint32) {
	if i != 0 {
		c.regs[i&0xf] = v
	}
}

// FlipRegBit injects an SEU into the register file.
func (c *CPU) FlipRegBit(reg int, bit uint) {
	if reg != 0 && bit < 32 {
		c.regs[reg&0xf] ^= 1 << bit
	}
}

// FlipPCBit injects an SEU into the program counter.
func (c *CPU) FlipPCBit(bit uint) {
	if bit < 32 {
		c.pc ^= 1 << bit
	}
}

// RaiseIRQ marks the interrupt line pending; the core vectors before
// the next instruction (unless already servicing one).
func (c *CPU) RaiseIRQ() { c.pending = true }

// InIRQ reports whether the core is inside an interrupt handler.
func (c *CPU) InIRQ() bool { return c.inIRQ }

// Step executes one instruction, adding consumed time to *delay.
// Errors are machine-level faults (bus error, illegal opcode) that a
// real core would trap on; campaigns classify them as detected errors.
func (c *CPU) Step(delay *sim.Time) error {
	if c.halted {
		return nil
	}
	if c.pending && !c.inIRQ {
		c.pending = false
		c.inIRQ = true
		c.savedPC = c.pc
		c.pc = c.IRQVector
	}
	word, resp := c.Bus.Read32(uint64(c.pc), delay)
	if !resp.OK() {
		return fmt.Errorf("ecu: %s: instruction fetch at %#x failed: %s", c.name, c.pc, resp)
	}
	ins, err := Decode(word)
	if err != nil {
		return fmt.Errorf("ecu: %s at pc=%#x: %w", c.name, c.pc, err)
	}
	*delay += sim.Time(c.CPI) * c.CyclePeriod
	c.instrs++
	next := c.pc + 4
	switch ins.Op {
	case OpNOP:
	case OpHALT:
		c.halted = true
	case OpADD:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))+c.Reg(int(ins.Rs2)))
	case OpSUB:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))-c.Reg(int(ins.Rs2)))
	case OpAND:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))&c.Reg(int(ins.Rs2)))
	case OpOR:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))|c.Reg(int(ins.Rs2)))
	case OpXOR:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))^c.Reg(int(ins.Rs2)))
	case OpSHL:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))<<(c.Reg(int(ins.Rs2))&31))
	case OpSHR:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))>>(c.Reg(int(ins.Rs2))&31))
	case OpMUL:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))*c.Reg(int(ins.Rs2)))
	case OpADDI:
		c.SetReg(int(ins.Rd), c.Reg(int(ins.Rs1))+uint32(ins.Imm))
	case OpLUI:
		c.SetReg(int(ins.Rd), uint32(ins.Imm)<<20)
	case OpLW:
		addr := c.Reg(int(ins.Rs1)) + uint32(ins.Imm)
		v, resp := c.Bus.Read32(uint64(addr), delay)
		if !resp.OK() {
			return fmt.Errorf("ecu: %s: load at %#x failed: %s", c.name, addr, resp)
		}
		c.SetReg(int(ins.Rd), v)
	case OpSW:
		addr := c.Reg(int(ins.Rs1)) + uint32(ins.Imm)
		val := c.Reg(int(ins.Rs2))
		if resp := c.Bus.Write32(uint64(addr), val, delay); !resp.OK() {
			return fmt.Errorf("ecu: %s: store at %#x failed: %s", c.name, addr, resp)
		}
		if c.StoreHook != nil {
			c.StoreHook(addr, val)
		}
	case OpBEQ:
		if c.Reg(int(ins.Rs1)) == c.Reg(int(ins.Rs2)) {
			next = c.pc + uint32(ins.Imm*4) + 4
		}
	case OpBNE:
		if c.Reg(int(ins.Rs1)) != c.Reg(int(ins.Rs2)) {
			next = c.pc + uint32(ins.Imm*4) + 4
		}
	case OpBLT:
		if int32(c.Reg(int(ins.Rs1))) < int32(c.Reg(int(ins.Rs2))) {
			next = c.pc + uint32(ins.Imm*4) + 4
		}
	case OpBGE:
		if int32(c.Reg(int(ins.Rs1))) >= int32(c.Reg(int(ins.Rs2))) {
			next = c.pc + uint32(ins.Imm*4) + 4
		}
	case OpJAL:
		c.SetReg(int(ins.Rd), c.pc+4)
		next = c.pc + uint32(ins.Imm*4) + 4
	case OpJALR:
		c.SetReg(int(ins.Rd), c.pc+4)
		next = c.Reg(int(ins.Rs1)) + uint32(ins.Imm)
	case OpRETI:
		next = c.savedPC
		c.inIRQ = false
	}
	c.pc = next
	return nil
}

// Run executes the core on a thread process with temporal decoupling:
// consumed time accumulates in the quantum keeper and synchronizes
// with the kernel only when the quantum is exceeded. maxInstrs bounds
// runaway (corrupted) programs; 0 means unbounded. Run returns when
// the core halts, faults, or hits the bound.
func (c *CPU) Run(ctx *sim.ThreadCtx, qk *tlm.QuantumKeeper, maxInstrs uint64) error {
	// One delay word for the whole loop: the bus call leaks its
	// address, so a per-iteration local would allocate per instruction.
	var d sim.Time
	for !c.halted {
		d = 0
		if err := c.Step(&d); err != nil {
			qk.Sync()
			return err
		}
		qk.Inc(d)
		qk.SyncIfNeeded()
		if maxInstrs > 0 && c.instrs >= maxInstrs {
			break
		}
	}
	qk.Sync()
	return nil
}

// LoadProgram writes assembled words into memory through a debug
// (zero-time) transport at base.
func LoadProgram(target tlm.DebugTarget, base uint64, words []uint32) {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	p := tlm.NewWrite(base, buf)
	target.TransportDbg(p)
}
