package ecu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/tlm"
)

// Tests for the hot-path rewrites: the bit-parallel SECDED codec
// against the bit-serial reference it replaced, the maintained ECC and
// store-log digests against from-scratch recomputes, digest soundness
// against the snapshot plane, and the allocation-free word bus path.

// eccEncodeSerial is the bit-serial reference encoder: Hamming bit b is
// the parity over every data bit whose codeword position has bit b
// set, bit 6 the overall parity over data and Hamming bits.
func eccEncodeSerial(data uint32) uint8 {
	var check uint8
	for b := 0; b < 6; b++ {
		parity := 0
		for i := 0; i < 32; i++ {
			if dataPositions[i]&(1<<b) != 0 && data>>uint(i)&1 == 1 {
				parity ^= 1
			}
		}
		if parity == 1 {
			check |= 1 << b
		}
	}
	parity := 0
	for i := 0; i < 32; i++ {
		parity ^= int(data >> uint(i) & 1)
	}
	for b := 0; b < 6; b++ {
		parity ^= int(check >> uint(b) & 1)
	}
	if parity == 1 {
		check |= 1 << 6
	}
	return check
}

// eccDecodeSerial is the bit-serial reference decoder.
func eccDecodeSerial(data uint32, check uint8) (uint32, ECCStatus) {
	syndrome := int((check ^ eccEncodeSerial(data)) & 0x3f)
	parity := 0
	for i := 0; i < 32; i++ {
		parity ^= int(data >> uint(i) & 1)
	}
	for b := 0; b < 7; b++ {
		parity ^= int(check >> uint(b) & 1)
	}
	switch {
	case syndrome == 0 && parity == 0:
		return data, ECCOk
	case parity == 1:
		for i, pos := range dataPositions {
			if pos == syndrome {
				return data ^ 1<<uint(i), ECCCorrected
			}
		}
		return data, ECCCorrected
	default:
		return data, ECCUncorrectable
	}
}

func TestECCEncodeMatchesSerialReference(t *testing.T) {
	words := []uint32{0, 1, 0x80000000, 0xffffffff, 0x7fffffff, 0xfffffffe,
		0x55555555, 0xaaaaaaaa, 0x0000ffff, 0xffff0000}
	for i := 0; i < 32; i++ {
		words = append(words, 1<<i, ^uint32(1<<i))
	}
	for _, v := range words {
		if got, want := eccEncode(v), eccEncodeSerial(v); got != want {
			t.Fatalf("eccEncode(%#x) = %#x, reference %#x", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1<<20; n++ {
		v := rng.Uint32()
		if got, want := eccEncode(v), eccEncodeSerial(v); got != want {
			t.Fatalf("eccEncode(%#x) = %#x, reference %#x", v, got, want)
		}
	}
}

// TestECCDecodeMatchesSerialReference flips every one of the 39
// codeword bits and every one of the 741 bit pairs of a set of words:
// the decoder must agree with the reference on data and status, and
// SECDED must hold — every single flip corrected back to the original
// word, every double flip reported uncorrectable.
func TestECCDecodeMatchesSerialReference(t *testing.T) {
	flip := func(v uint32, c uint8, bit int) (uint32, uint8) {
		if bit < 32 {
			return v ^ 1<<uint(bit), c
		}
		return v, c ^ 1<<uint(bit-32)
	}
	rng := rand.New(rand.NewSource(2))
	words := []uint32{0, 0xffffffff, 0xdeadbeef, 0x80000001}
	for i := 0; i < 12; i++ {
		words = append(words, rng.Uint32())
	}
	for _, v := range words {
		c := eccEncode(v)
		check := func(d uint32, k uint8, wantStatus ECCStatus, what string) {
			t.Helper()
			got, st := eccDecode(d, k)
			refGot, refSt := eccDecodeSerial(d, k)
			if got != refGot || st != refSt {
				t.Fatalf("%#x %s: decode %#x/%s, reference %#x/%s", v, what, got, st, refGot, refSt)
			}
			if st != wantStatus || (st == ECCCorrected && got != v) {
				t.Fatalf("%#x %s: decode %#x/%s, want %s", v, what, got, st, wantStatus)
			}
		}
		check(v, c, ECCOk, "clean")
		pairs := 0
		for a := 0; a < 39; a++ {
			d, k := flip(v, c, a)
			check(d, k, ECCCorrected, "single flip")
			for b := a + 1; b < 39; b++ {
				d2, k2 := flip(d, k, b)
				check(d2, k2, ECCUncorrectable, "double flip")
				pairs++
			}
		}
		if pairs != 741 {
			t.Fatalf("%d double flips, want 741", pairs)
		}
	}
}

// recomputeECCDigest is the content digest from scratch.
func recomputeECCDigest(m *ECCMemory) uint64 {
	var sum uint64
	for i := range m.words {
		sum += cellDigest(i, m.words[i], m.check[i])
	}
	return sum
}

// recomputeStoreDigest is a store log's running digest from scratch.
func recomputeStoreDigest(log []storeRec) uint64 {
	var d uint64
	for _, r := range log {
		d = mixStore(d, r)
	}
	return d
}

// digestOps interprets ops as a sequence of mutations on a 16-word ECC
// memory and a lockstep comparator — bus reads (scrubbing corrected
// words), bus and debug writes, data and check-bit upsets, Clear,
// store records, comparator resets and snapshot/restore pairs — and
// fails as soon as a maintained digest differs from its recompute or
// a restore does not bring back the captured digests.
func digestOps(t *testing.T, ops []byte) {
	const words = 16
	m := NewECCMemory("digest.ram", 0, 4*words)
	ls := NewLockstep(NewCPU("digest.p"), NewCPU("digest.s"))
	var (
		eccSnap    eccState
		lsSnap     lsState
		snapped    bool
		snapDigest [3]uint64
	)
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		op, arg, val := next()%10, next(), uint32(next())*0x01010101^uint32(next())<<7
		addr := uint64(arg%(words+1)) * 4 // one past the end: address error
		var delay sim.Time
		switch op {
		case 0, 1:
			p := tlm.NewRead(addr, 4)
			if op == 1 {
				p = tlm.NewWrite(addr, []byte{byte(val), byte(val >> 8), byte(val >> 16), byte(val >> 24)})
			}
			m.BTransport(p, &delay)
		case 2:
			buf := make([]byte, 8)
			for i := range buf {
				buf[i] = byte(val >> (i % 4 * 8))
			}
			m.TransportDbg(tlm.NewWrite(uint64(arg%(words-1))*4, buf))
		case 3:
			_ = m.FlipStoredBit(addr, uint(val%32))
		case 4:
			_ = m.FlipStoredBit(addr, 32+uint(val%7))
		case 5:
			m.Clear()
		case 6:
			if arg&1 == 0 {
				ls.Primary.StoreHook(uint32(addr), val)
			} else {
				ls.Shadow.StoreHook(uint32(addr), val)
			}
		case 7:
			ls.Reset()
		case 8, 9:
			if !snapped {
				m.captureInto(&eccSnap)
				ls.captureInto(&lsSnap)
				snapDigest = [3]uint64{m.digest, ls.pDig, ls.sDig}
				snapped = true
				break
			}
			m.restoreFrom(&eccSnap)
			ls.restoreFrom(&lsSnap)
			snapped = false
			if got := [3]uint64{m.digest, ls.pDig, ls.sDig}; got != snapDigest {
				t.Fatalf("step %d: restored digests %x, captured %x", step, got, snapDigest)
			}
		}
		if want := recomputeECCDigest(m); m.digest != want {
			t.Fatalf("step %d (op %d): ECC digest %#x, recompute %#x", step, op, m.digest, want)
		}
		if want := recomputeStoreDigest(ls.pLog); ls.pDig != want {
			t.Fatalf("step %d (op %d): primary store digest %#x, recompute %#x", step, op, ls.pDig, want)
		}
		if want := recomputeStoreDigest(ls.sLog); ls.sDig != want {
			t.Fatalf("step %d (op %d): shadow store digest %#x, recompute %#x", step, op, ls.sDig, want)
		}
	}
}

func TestECUDigestInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		ops := make([]byte, 4*(1+rng.Intn(96)))
		rng.Read(ops)
		digestOps(t, ops)
	}
}

func FuzzECUDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0x5a, 0x01, 0, 3, 0, 0, 4, 3, 9, 0, 0, 3, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 0xff, 0xff, 6, 0, 7, 7, 9, 0, 0, 0, 6, 1, 3, 3})
	f.Add([]byte{2, 5, 0x11, 0x22, 5, 0, 0, 0, 3, 16, 1, 1, 8, 0, 0, 0, 5, 0, 0, 0, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		digestOps(t, ops)
	})
}

// TestDigestMatchImpliesSnapshotEqual checks HashState against the
// snapshot plane on the ECU: whenever a faulty run's model digest
// equals the golden run's at a trajectory stride, the two model
// snapshots must be deep-equal — a digest that left out mutable state
// would let early exit accept a run that has not converged. Runs stop
// at their first match, as early exit does; a fine stride puts most
// comparisons inside the window the golden program runs in.
func TestDigestMatchImpliesSnapshotEqual(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stride, horizon := sim.NS(250), r.cfg.Horizon

	golden := r.buildSlot()
	defer golden.k.Shutdown()
	golden.beginRun()
	var sigs []uint64
	if _, err := stressor.RecordTrajectoryFunc(golden.k, golden, stride, horizon, func(int, sim.Time) {
		sigs = append(sigs, sim.StateSignature(golden))
	}); err != nil {
		t.Fatal(err)
	}
	goldenAt := func(at sim.Time) any {
		s := r.buildSlot()
		defer s.k.Shutdown()
		s.beginRun()
		if err := s.k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		return s.SnapshotState()
	}

	matches := 0
	for _, sc := range liveWindowScenarios(r) {
		s := r.acquireSlot()
		s.beginRun()
		st := stressor.SpawnThread(s.k, s.reg, sc, horizon)
		for i, want := range sigs {
			at := sim.Time(i+1) * stride
			if err := s.k.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			if !st.Finished() || sim.StateSignature(s) != want {
				continue
			}
			matches++
			if got, gold := s.SnapshotState(), goldenAt(at); !reflect.DeepEqual(got, gold) {
				t.Fatalf("%s: digest matches golden at %s but model state differs", sc.ID, at)
			}
			break
		}
		r.releaseSlot(s)
	}
	if matches == 0 {
		t.Fatal("no faulty run matched the golden digest: the check is vacuous")
	}
	t.Logf("%d digest matches checked against snapshots", matches)
}

func TestWordAccessZeroAlloc(t *testing.T) {
	m := NewECCMemory("alloc.ram", 0, 64)
	sock := tlm.NewInitiatorSocket("alloc.bus")
	sock.Bind(m)
	var d sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		if resp := sock.Write32(8, 0xdeadbeef, &d); !resp.OK() {
			t.Fatal(resp)
		}
		if err := m.FlipStoredBit(8, 3); err != nil {
			t.Fatal(err)
		}
		if v, resp := sock.Read32(8, &d); !resp.OK() || v != 0xdeadbeef {
			t.Fatalf("corrected read %#x, %s", v, resp)
		}
	})
	if allocs != 0 {
		t.Fatalf("Read32/Write32 on ECCMemory: %v allocs per access pair, want 0", allocs)
	}
}
