package ecu

import (
	"repro/internal/sim"
)

// Snapshot state for the ECU prototype, following the sim.Snapshottable
// convention: ecuSlot.SnapshotState deep-copies everything a run
// mutates — core register files, ECC codeword arrays, the watchdog
// shadow memory, lockstep store logs, watchdog counters and the
// run-phase process machines — so restoring it plus the paired kernel
// checkpoint rewinds a slot to the golden-prefix instant exactly.

type cpuState struct {
	regs    [16]uint32
	pc      uint32
	savedPC uint32
	inIRQ   bool
	pending bool
	halted  bool
	instrs  uint64
}

func (c *CPU) captureInto(st *cpuState) {
	st.regs = c.regs
	st.pc = c.pc
	st.savedPC = c.savedPC
	st.inIRQ = c.inIRQ
	st.pending = c.pending
	st.halted = c.halted
	st.instrs = c.instrs
}

func (c *CPU) restoreFrom(st *cpuState) {
	c.regs = st.regs
	c.pc = st.pc
	c.savedPC = st.savedPC
	c.inIRQ = st.inIRQ
	c.pending = st.pending
	c.halted = st.halted
	c.instrs = st.instrs
}

type eccState struct {
	words         []uint32
	check         []uint8
	digest        uint64
	corrected     uint64
	uncorrectable uint64
}

func (m *ECCMemory) captureInto(st *eccState) {
	st.words = append(st.words[:0], m.words...)
	st.check = append(st.check[:0], m.check...)
	st.digest = m.digest
	st.corrected = m.corrected
	st.uncorrectable = m.uncorrectable
}

func (m *ECCMemory) restoreFrom(st *eccState) {
	copy(m.words, st.words)
	copy(m.check, st.check)
	m.digest = st.digest
	m.corrected = st.corrected
	m.uncorrectable = st.uncorrectable
}

type wdState struct {
	enabled  bool
	timeouts uint64
	kicks    uint64
}

type lsState struct {
	pLog, sLog []storeRec
	pDig, sDig uint64
	diverged   bool
	detail     string
}

func (ls *Lockstep) captureInto(st *lsState) {
	st.pLog = append(st.pLog[:0], ls.pLog...)
	st.sLog = append(st.sLog[:0], ls.sLog...)
	st.pDig, st.sDig = ls.pDig, ls.sDig
	st.diverged = ls.diverged
	st.detail = ls.detail
}

func (ls *Lockstep) restoreFrom(st *lsState) {
	ls.pLog = append(ls.pLog[:0], st.pLog...)
	ls.sLog = append(ls.sLog[:0], st.sLog...)
	ls.pDig, ls.sDig = st.pDig, st.sDig
	ls.diverged = st.diverged
	ls.detail = st.detail
}

type crState struct {
	local sim.Time
	phase uint8
	err   error
}

// ecuSlotState is the opaque deep copy returned by SnapshotState.
type ecuSlotState struct {
	primary, shadow cpuState
	pram, sram      eccState
	wdshadow        any
	wd              wdState
	ls              lsState
	pRun, sRun      crState
	pDone, sDone    bool
	pErr, sErr      error
	haltAt          sim.Time
}

// SnapshotState implements sim.Snapshottable.
func (s *ecuSlot) SnapshotState() any {
	st := &ecuSlotState{
		wdshadow: s.wdshadow.SnapshotState(),
		wd:       wdState{enabled: s.wd.enabled, timeouts: s.wd.timeouts, kicks: s.wd.kicks},
		pRun:     crState{local: s.pRun.local, phase: s.pRun.phase, err: s.pRun.err},
		sRun:     crState{local: s.sRun.local, phase: s.sRun.phase, err: s.sRun.err},
		pDone:    s.pDone, sDone: s.sDone,
		pErr: s.pErr, sErr: s.sErr,
		haltAt: s.haltAt,
	}
	s.primary.captureInto(&st.primary)
	s.shadow.captureInto(&st.shadow)
	s.pram.captureInto(&st.pram)
	s.sram.captureInto(&st.sram)
	s.ls.captureInto(&st.ls)
	return st
}

// SnapshotStateInto implements sim.StatePooler: SnapshotState reusing
// a previous capture's buffers (codeword arrays, store logs, the
// watchdog shadow) so checkpoint-tree forking stays allocation-free in
// steady state.
func (s *ecuSlot) SnapshotStateInto(prev any) any {
	st, _ := prev.(*ecuSlotState)
	if st == nil {
		return s.SnapshotState()
	}
	s.primary.captureInto(&st.primary)
	s.shadow.captureInto(&st.shadow)
	s.pram.captureInto(&st.pram)
	s.sram.captureInto(&st.sram)
	st.wdshadow = s.wdshadow.SnapshotStateInto(st.wdshadow)
	st.wd = wdState{enabled: s.wd.enabled, timeouts: s.wd.timeouts, kicks: s.wd.kicks}
	s.ls.captureInto(&st.ls)
	st.pRun = crState{local: s.pRun.local, phase: s.pRun.phase, err: s.pRun.err}
	st.sRun = crState{local: s.sRun.local, phase: s.sRun.phase, err: s.sRun.err}
	st.pDone, st.sDone = s.pDone, s.sDone
	st.pErr, st.sErr = s.pErr, s.sErr
	st.haltAt = s.haltAt
	return st
}

// HashState implements sim.Hashable, folding everything a run mutates
// and FinalCheck/finishRun later read: core register files and
// run-state machines, the ECC codewords plus their corrected and
// uncorrectable counters (detection outputs), the watchdog shadow
// memory and counters, the lockstep store logs (FinalCheck compares
// them after the run) and the halt/error latches. The ECU slot keeps
// no diagnostics-only state, so nothing is excluded.
//
// The two large parts — the 64 KiB codeword images and the store logs,
// which a runaway core grows to MaxInstrs records — are folded through
// digests their owners maintain at every mutation and carry in the
// snapshot, so a digest costs O(1) however large they are.
func (s *ecuSlot) HashState(h *sim.StateHash) {
	hashCPU(h, s.primary)
	hashCPU(h, s.shadow)
	hashECC(h, s.pram)
	hashECC(h, s.sram)
	s.wdshadow.HashState(h)
	h.Bool(s.wd.enabled)
	h.U64(s.wd.timeouts)
	h.U64(s.wd.kicks)
	hashStores(h, s.ls.pLog, s.ls.pDig)
	hashStores(h, s.ls.sLog, s.ls.sDig)
	h.Bool(s.ls.diverged)
	h.Str(s.ls.detail)
	hashCoreRun(h, s.pRun.local, s.pRun.phase, s.pRun.err)
	hashCoreRun(h, s.sRun.local, s.sRun.phase, s.sRun.err)
	h.Bool(s.pDone)
	h.Bool(s.sDone)
	hashErr(h, s.pErr)
	hashErr(h, s.sErr)
	h.Time(s.haltAt)
}

// NeverConverges implements stressor.Divergent: a fired lockstep
// comparator, a watchdog timeout or an ECC correction is a latch the
// golden run never sets (NewRunner rejects a golden run that trips a
// mechanism), and none of them ever clears within a run.
func (s *ecuSlot) NeverConverges() bool {
	pc, pu := s.pram.Stats()
	sc, su := s.sram.Stats()
	return s.ls.diverged || s.wd.timeouts > 0 || pc+pu+sc+su > 0
}

func hashCPU(h *sim.StateHash, c *CPU) {
	for _, r := range c.regs {
		h.U32(r)
	}
	h.U32(c.pc)
	h.U32(c.savedPC)
	h.Bool(c.inIRQ)
	h.Bool(c.pending)
	h.Bool(c.halted)
	h.U64(c.instrs)
}

func hashECC(h *sim.StateHash, m *ECCMemory) {
	h.Int(len(m.words))
	h.U64(m.digest)
	h.U64(m.corrected)
	h.U64(m.uncorrectable)
}

func hashStores(h *sim.StateHash, log []storeRec, digest uint64) {
	h.Int(len(log))
	h.U64(digest)
}

func hashCoreRun(h *sim.StateHash, local sim.Time, phase uint8, err error) {
	h.Time(local)
	h.Byte(phase)
	hashErr(h, err)
}

// hashErr folds an error as a presence bit plus its message — two runs
// whose errors render identically are convergent for classification
// purposes (finishRun only reads Error()).
func hashErr(h *sim.StateHash, err error) {
	if err == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Str(err.Error())
}

// RestoreState implements sim.Snapshottable, reusing the slot's
// backing buffers (codeword arrays, store logs).
func (s *ecuSlot) RestoreState(state any) {
	st := state.(*ecuSlotState)
	s.primary.restoreFrom(&st.primary)
	s.shadow.restoreFrom(&st.shadow)
	s.pram.restoreFrom(&st.pram)
	s.sram.restoreFrom(&st.sram)
	s.wdshadow.RestoreState(st.wdshadow)
	s.wd.enabled = st.wd.enabled
	s.wd.timeouts = st.wd.timeouts
	s.wd.kicks = st.wd.kicks
	s.ls.restoreFrom(&st.ls)
	s.pRun.local, s.pRun.phase, s.pRun.err = st.pRun.local, st.pRun.phase, st.pRun.err
	s.sRun.local, s.sRun.phase, s.sRun.err = st.sRun.local, st.sRun.phase, st.sRun.err
	s.pDone, s.sDone = st.pDone, st.sDone
	s.pErr, s.sErr = st.pErr, st.sErr
	s.haltAt = st.haltAt
}
