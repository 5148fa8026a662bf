package ecu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// Lockstep runs two AE32 cores over the same program and compares
// their store streams — the classic dual-core lockstep safety
// mechanism of automotive microcontrollers. The cores run against
// separate memories (so a fault in one does not contaminate the
// other); the comparator flags the first divergent store. Detection
// is at store granularity: a corrupted register that never reaches a
// store stays latent, exactly as in real lockstep designs.
type Lockstep struct {
	Primary *CPU
	Shadow  *CPU
	pLog    []storeRec
	sLog    []storeRec
	// pDig and sDig are running digests of the two logs (mixStore
	// folded over every record), which HashState folds instead of
	// rescanning logs that a runaway core grows to MaxInstrs records.
	pDig, sDig uint64
	diverged   bool
	detail     string
}

type storeRec struct {
	addr, val uint32
}

// NewLockstep wires the comparator onto two cores.
func NewLockstep(primary, shadow *CPU) *Lockstep {
	ls := &Lockstep{Primary: primary, Shadow: shadow}
	primary.StoreHook = func(addr, val uint32) { ls.record(&ls.pLog, &ls.sLog, &ls.pDig, addr, val, "primary") }
	shadow.StoreHook = func(addr, val uint32) { ls.record(&ls.sLog, &ls.pLog, &ls.sDig, addr, val, "shadow") }
	return ls
}

// mixStore folds one store record into a log's running digest: fmix64
// of the digest plus the packed record, so the digest depends on every
// record and on their order.
func mixStore(digest uint64, r storeRec) uint64 {
	return fmix64(digest + (uint64(r.addr)<<32 | uint64(r.val)) + 0x9e3779b97f4a7c15)
}

// record appends to own log, folding the record into the log's digest,
// and compares against the counterpart at the same index if already
// present.
func (ls *Lockstep) record(own, other *[]storeRec, digest *uint64, addr, val uint32, who string) {
	idx := len(*own)
	*own = append(*own, storeRec{addr, val})
	*digest = mixStore(*digest, storeRec{addr, val})
	if idx < len(*other) {
		o := (*other)[idx]
		if o.addr != addr || o.val != val {
			ls.flag(idx, who, addr, val, o)
		}
	}
}

func (ls *Lockstep) flag(idx int, who string, addr, val uint32, o storeRec) {
	if ls.diverged {
		return
	}
	ls.diverged = true
	ls.detail = fmt.Sprintf("store %d: %s wrote %#x=%#x, counterpart wrote %#x=%#x",
		idx, who, addr, val, o.addr, o.val)
}

// Reset clears the comparator for another run, keeping the store-log
// capacity. The store hooks installed by NewLockstep stay attached.
func (ls *Lockstep) Reset() {
	ls.pLog = ls.pLog[:0]
	ls.sLog = ls.sLog[:0]
	ls.pDig, ls.sDig = 0, 0
	ls.diverged = false
	ls.detail = ""
}

// FinalCheck compares store counts after both cores halt: a core that
// stopped storing (e.g. crashed into a loop) also counts as
// divergence.
func (ls *Lockstep) FinalCheck() {
	if ls.diverged {
		return
	}
	if len(ls.pLog) != len(ls.sLog) {
		ls.diverged = true
		ls.detail = fmt.Sprintf("store count mismatch: primary %d, shadow %d", len(ls.pLog), len(ls.sLog))
	}
}

// Diverged reports whether the comparator fired.
func (ls *Lockstep) Diverged() bool { return ls.diverged }

// Detail describes the first divergence.
func (ls *Lockstep) Detail() string { return ls.detail }

// Stores reports the store counts seen so far.
func (ls *Lockstep) Stores() (primary, shadow int) { return len(ls.pLog), len(ls.sLog) }

// RunLockstep executes both cores to completion on a fresh kernel
// thread pair and returns whether the comparator detected divergence.
// quantum controls temporal decoupling for both cores.
func RunLockstep(k *sim.Kernel, ls *Lockstep, quantum sim.Time, maxInstrs uint64) (detected bool, err error) {
	errs := make([]error, 2)
	k.Thread("lockstep.primary", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, quantum)
		errs[0] = ls.Primary.Run(ctx, qk, maxInstrs)
	})
	k.Thread("lockstep.shadow", func(ctx *sim.ThreadCtx) {
		qk := tlm.NewQuantumKeeper(ctx, quantum)
		errs[1] = ls.Shadow.Run(ctx, qk, maxInstrs)
	})
	if err := k.Run(sim.TimeMax); err != nil {
		return false, err
	}
	ls.FinalCheck()
	// A trap (bus error / illegal opcode) on either core is likewise a
	// detection: real lockstep MCUs escalate traps to the safety path.
	for _, e := range errs {
		if e != nil {
			ls.diverged = true
			if ls.detail == "" {
				ls.detail = "core trap: " + e.Error()
			}
		}
	}
	return ls.diverged, nil
}
