package tlm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPayloadBuilders(t *testing.T) {
	r := NewRead(0x100, 8)
	if r.Command != CmdRead || r.Address != 0x100 || len(r.Data) != 8 {
		t.Errorf("NewRead = %+v", r)
	}
	w := NewWrite(0x200, []byte{1, 2})
	if w.Command != CmdWrite || w.Address != 0x200 || len(w.Data) != 2 {
		t.Errorf("NewWrite = %+v", w)
	}
	if r.Response != RespIncomplete {
		t.Errorf("fresh payload response = %v", r.Response)
	}
}

func TestPayloadExtensions(t *testing.T) {
	p := NewRead(0, 1)
	if _, ok := p.Extension("fault"); ok {
		t.Error("extension present on fresh payload")
	}
	p.SetExtension("fault", 42)
	v, ok := p.Extension("fault")
	if !ok || v.(int) != 42 {
		t.Errorf("Extension = %v, %v", v, ok)
	}
	p.ClearExtension("fault")
	if _, ok := p.Extension("fault"); ok {
		t.Error("extension survives ClearExtension")
	}
}

func TestPayloadByteEnable(t *testing.T) {
	p := NewWrite(0, []byte{1, 2, 3, 4})
	p.ByteEnable = []byte{0xff, 0x00}
	want := []bool{true, false, true, false}
	for i, w := range want {
		if p.EnabledByte(i) != w {
			t.Errorf("EnabledByte(%d) = %v, want %v", i, p.EnabledByte(i), w)
		}
	}
}

func TestCommandResponseStrings(t *testing.T) {
	if CmdRead.String() != "read" || CmdWrite.String() != "write" || CmdIgnore.String() != "ignore" {
		t.Error("command strings wrong")
	}
	if !RespOK.OK() || RespAddressError.OK() {
		t.Error("Response.OK wrong")
	}
	if RespAddressError.String() != "address-error" {
		t.Errorf("resp string = %s", RespAddressError)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory("ram", 0x1000, 256)
	m.WriteLatency = sim.NS(10)
	m.ReadLatency = sim.NS(5)
	var delay sim.Time
	p := NewWrite(0x1010, []byte{0xde, 0xad, 0xbe, 0xef})
	m.BTransport(p, &delay)
	if !p.Response.OK() {
		t.Fatalf("write resp = %v", p.Response)
	}
	if delay != sim.NS(10) {
		t.Errorf("write delay = %v", delay)
	}
	q := NewRead(0x1010, 4)
	m.BTransport(q, &delay)
	if !q.Response.OK() || !bytes.Equal(q.Data, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("read = %v %x", q.Response, q.Data)
	}
	if delay != sim.NS(15) {
		t.Errorf("accumulated delay = %v", delay)
	}
	reads, writes := m.Stats()
	if reads != 1 || writes != 1 {
		t.Errorf("stats = %d, %d", reads, writes)
	}
}

func TestMemoryAddressError(t *testing.T) {
	m := NewMemory("ram", 0x1000, 16)
	var d sim.Time
	for _, addr := range []uint64{0x0fff, 0x100d} { // below base; straddles end
		p := NewRead(addr, 4)
		m.BTransport(p, &d)
		if p.Response != RespAddressError {
			t.Errorf("read @0x%x resp = %v, want address-error", addr, p.Response)
		}
	}
}

func TestMemoryByteEnable(t *testing.T) {
	m := NewMemory("ram", 0, 8)
	m.Poke(0, []byte{1, 2, 3, 4})
	var d sim.Time
	p := NewWrite(0, []byte{9, 9, 9, 9})
	p.ByteEnable = []byte{0x00, 0xff}
	m.BTransport(p, &d)
	if got := m.Peek(0, 4); !bytes.Equal(got, []byte{1, 9, 3, 9}) {
		t.Errorf("after masked write: %v", got)
	}
}

func TestMemoryFlipBit(t *testing.T) {
	m := NewMemory("ram", 0x100, 16)
	m.Poke(0x104, []byte{0b0000_1000})
	if err := m.FlipBit(0x104, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(0x104, 1)[0]; got != 0 {
		t.Errorf("after flip: %#b", got)
	}
	if err := m.FlipBit(0x200, 0); err == nil {
		t.Error("FlipBit outside range succeeded")
	}
	if err := m.FlipBit(0x104, 8); err == nil {
		t.Error("FlipBit bit 8 succeeded")
	}
}

func TestMemoryStuckAt(t *testing.T) {
	m := NewMemory("ram", 0, 16)
	if err := m.StuckAt(5, 0, true); err != nil {
		t.Fatal(err)
	}
	var d sim.Time
	p := NewWrite(5, []byte{0x00})
	m.BTransport(p, &d)
	q := NewRead(5, 1)
	m.BTransport(q, &d)
	if q.Data[0] != 0x01 {
		t.Errorf("stuck-at-1 read = %#x, want 0x01", q.Data[0])
	}
	// Underlying storage holds the written value; the defect is read-side.
	if m.data[5] != 0x00 {
		t.Errorf("underlying cell = %#x, want 0", m.data[5])
	}
	m.ClearFaults()
	q2 := NewRead(5, 1)
	m.BTransport(q2, &d)
	if q2.Data[0] != 0x00 {
		t.Errorf("after ClearFaults read = %#x", q2.Data[0])
	}
}

func TestMemoryStuckAtZero(t *testing.T) {
	m := NewMemory("ram", 0, 4)
	m.Poke(1, []byte{0xff})
	if err := m.StuckAt(1, 4, false); err != nil {
		t.Fatal(err)
	}
	var d sim.Time
	q := NewRead(1, 1)
	m.BTransport(q, &d)
	if q.Data[0] != 0xef {
		t.Errorf("stuck-at-0 read = %#x, want 0xef", q.Data[0])
	}
}

func TestMemoryTransportDbg(t *testing.T) {
	m := NewMemory("ram", 0, 16)
	p := NewWrite(4, []byte{7, 8})
	if n := m.TransportDbg(p); n != 2 {
		t.Errorf("dbg write n = %d", n)
	}
	q := NewRead(4, 2)
	if n := m.TransportDbg(q); n != 2 || !bytes.Equal(q.Data, []byte{7, 8}) {
		t.Errorf("dbg read = %d %v", n, q.Data)
	}
}

func TestMemoryDMI(t *testing.T) {
	m := NewMemory("ram", 0x1000, 64)
	m.AllowDMI = true
	var dmi DMIData
	p := NewRead(0x1004, 4)
	if !m.GetDMIPtr(p, &dmi) {
		t.Fatal("DMI denied")
	}
	if dmi.StartAddr != 0x1000 || dmi.EndAddr != 0x103f || !dmi.ReadAllowed || !dmi.WriteAllowed {
		t.Errorf("dmi = %+v", dmi)
	}
	if !dmi.Contains(0x1000) || !dmi.Contains(0x103f) || dmi.Contains(0x1040) {
		t.Error("Contains wrong")
	}
	// Stuck-at faults must revoke DMI eligibility.
	if err := m.StuckAt(0x1000, 0, true); err != nil {
		t.Fatal(err)
	}
	if m.GetDMIPtr(p, &dmi) {
		t.Error("DMI granted while stuck-at fault active")
	}
}

func TestSocketBinding(t *testing.T) {
	s := NewInitiatorSocket("cpu.data")
	if s.Bound() {
		t.Error("fresh socket bound")
	}
	m := NewMemory("ram", 0, 16)
	s.Bind(m)
	if !s.Bound() {
		t.Error("socket not bound after Bind")
	}
	defer func() {
		if recover() == nil {
			t.Error("double Bind did not panic")
		}
	}()
	s.Bind(m)
}

func TestSocketHelpers(t *testing.T) {
	s := NewInitiatorSocket("init")
	m := NewMemory("ram", 0, 64)
	s.Bind(m)
	var d sim.Time
	if resp := s.Write32(0x10, 0xdeadbeef, &d); !resp.OK() {
		t.Fatalf("Write32 resp = %v", resp)
	}
	v, resp := s.Read32(0x10, &d)
	if !resp.OK() || v != 0xdeadbeef {
		t.Errorf("Read32 = %#x, %v", v, resp)
	}
	data, resp := s.Read(0x10, 2, &d)
	if !resp.OK() || !bytes.Equal(data, []byte{0xef, 0xbe}) {
		t.Errorf("Read = %x, %v", data, resp)
	}
}

// TestSocketWordAccessZeroAlloc pins the allocation-free word path:
// Read32 and Write32 reuse the socket's scratch payload and buffer.
func TestSocketWordAccessZeroAlloc(t *testing.T) {
	s := NewInitiatorSocket("init")
	s.Bind(NewMemory("ram", 0, 64))
	var d sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		if resp := s.Write32(0x10, 0xdeadbeef, &d); !resp.OK() {
			t.Fatal(resp)
		}
		if v, resp := s.Read32(0x10, &d); !resp.OK() || v != 0xdeadbeef {
			t.Fatalf("Read32 = %#x, %v", v, resp)
		}
	})
	if allocs != 0 {
		t.Fatalf("Read32/Write32 on Memory: %v allocs per access pair, want 0", allocs)
	}
}

// TestSocketWordAccessFreshPayload: whatever a target leaves on the
// scratch payload (extensions, byte enables, a response, a swapped
// data slice) does not reach the next word access.
func TestSocketWordAccessFreshPayload(t *testing.T) {
	s := NewInitiatorSocket("init")
	var seen []string
	s.Bind(TargetFunc(func(p *Payload, _ *sim.Time) {
		_, ext := p.Extension("tag")
		seen = append(seen, fmt.Sprintf("%s %#x len=%d be=%v resp=%s ext=%v data=%x",
			p.Command, p.Address, len(p.Data), p.ByteEnable != nil, p.Response, ext, p.Data))
		p.SetExtension("tag", 1)
		p.ByteEnable = []byte{0}
		p.Data = []byte{1, 2, 3, 4, 5}
		p.Response = RespOK
	}))
	var d sim.Time
	s.Write32(0x20, 0x11223344, &d)
	if v, _ := s.Read32(0x24, &d); v != 0x04030201 {
		t.Errorf("Read32 = %#x, want the target's data", v)
	}
	s.Write32(0x28, 0, &d)
	want := []string{
		"write 0x20 len=4 be=false resp=incomplete ext=false data=44332211",
		"read 0x24 len=4 be=false resp=incomplete ext=false data=00000000",
		"write 0x28 len=4 be=false resp=incomplete ext=false data=00000000",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("target saw\n%s\nwant\n%s", strings.Join(seen, "\n"), strings.Join(want, "\n"))
	}
}

func TestTargetFunc(t *testing.T) {
	called := false
	var tgt Target = TargetFunc(func(p *Payload, delay *sim.Time) {
		called = true
		p.Response = RespOK
	})
	var d sim.Time
	p := NewRead(0, 1)
	tgt.BTransport(p, &d)
	if !called || !p.Response.OK() {
		t.Error("TargetFunc not invoked")
	}
}

func TestRouterDecode(t *testing.T) {
	r := NewRouter("bus")
	r.HopLatency = sim.NS(2)
	ram := NewMemory("ram", 0x0000, 0x100)
	rom := NewMemory("rom", 0x8000, 0x100)
	r.MustMap("ram", 0x0000, 0x100, ram)
	r.MustMap("rom", 0x8000, 0x100, rom)

	var d sim.Time
	p := NewWrite(0x8010, []byte{5})
	r.BTransport(p, &d)
	if !p.Response.OK() {
		t.Fatalf("routed write resp = %v", p.Response)
	}
	if d != sim.NS(2) {
		t.Errorf("hop latency = %v", d)
	}
	if rom.Peek(0x8010, 1)[0] != 5 {
		t.Error("write routed to wrong target")
	}
	q := NewRead(0x4000, 1)
	r.BTransport(q, &d)
	if q.Response != RespAddressError {
		t.Errorf("unmapped resp = %v", q.Response)
	}
	if r.Hops() != 1 {
		t.Errorf("hops = %d, want 1 (unmapped not counted)", r.Hops())
	}
}

func TestRouterOverlapRejected(t *testing.T) {
	r := NewRouter("bus")
	m := NewMemory("m", 0, 0x200)
	if err := r.Map("a", 0x000, 0x100, m); err != nil {
		t.Fatal(err)
	}
	if err := r.Map("b", 0x0ff, 0x100, m); err == nil {
		t.Error("overlapping Map accepted")
	}
	if err := r.Map("c", 0, 0, m); err == nil {
		t.Error("empty Map accepted")
	}
}

func TestRouterDbgAndDMI(t *testing.T) {
	r := NewRouter("bus")
	r.HopLatency = sim.NS(1)
	ram := NewMemory("ram", 0x1000, 64)
	ram.AllowDMI = true
	r.MustMap("ram", 0x1000, 64, ram)
	p := NewWrite(0x1008, []byte{0xaa})
	if n := r.TransportDbg(p); n != 1 {
		t.Errorf("routed dbg n = %d", n)
	}
	var dmi DMIData
	q := NewRead(0x1008, 1)
	if !r.GetDMIPtr(q, &dmi) {
		t.Fatal("routed DMI denied")
	}
	if dmi.ReadLatency != sim.NS(1) {
		t.Errorf("DMI latency missing hop: %v", dmi.ReadLatency)
	}
	if dmi.Ptr[8] != 0xaa {
		t.Error("DMI window misaligned")
	}
}

func TestQuantumKeeper(t *testing.T) {
	k := sim.NewKernel()
	var syncTimes []sim.Time
	k.Thread("lt", func(c *sim.ThreadCtx) {
		qk := NewQuantumKeeper(c, sim.NS(100))
		for i := 0; i < 10; i++ {
			qk.Inc(sim.NS(30))
			if qk.SyncIfNeeded() {
				syncTimes = append(syncTimes, c.Now())
			}
		}
		qk.Sync()
		syncTimes = append(syncTimes, c.Now())
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	// 10 * 30ns = 300ns total, quantum 100ns: syncs at 120, 240, 300.
	want := []sim.Time{sim.NS(120), sim.NS(240), sim.NS(300)}
	if len(syncTimes) != len(want) {
		t.Fatalf("syncTimes = %v", syncTimes)
	}
	for i := range want {
		if syncTimes[i] != want[i] {
			t.Errorf("sync %d at %v, want %v", i, syncTimes[i], want[i])
		}
	}
}

func TestQuantumKeeperCurrentTime(t *testing.T) {
	k := sim.NewKernel()
	var current sim.Time
	k.Thread("lt", func(c *sim.ThreadCtx) {
		qk := NewQuantumKeeper(c, sim.US(1))
		c.WaitTime(sim.NS(50))
		qk.Inc(sim.NS(7))
		current = qk.CurrentTime()
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	if current != sim.NS(57) {
		t.Errorf("CurrentTime = %v, want 57 ns", current)
	}
}

func TestATRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	mem := NewMemory("ram", 0, 64)
	mem.ReadLatency = sim.NS(20)
	mem.WriteLatency = sim.NS(10)
	req := NewATRequester(k, "cpu")
	at := NewATTarget(k, "ram.at", mem, req)
	req.Bind(at)

	var readBack uint32
	var doneAt sim.Time
	k.Thread("cpu", func(c *sim.ThreadCtx) {
		w := NewWrite(0x10, []byte{0x34, 0x12, 0, 0})
		req.Transact(c, w)
		if !w.Response.OK() {
			t.Errorf("AT write resp = %v", w.Response)
		}
		r := NewRead(0x10, 4)
		req.Transact(c, r)
		if !r.Response.OK() {
			t.Errorf("AT read resp = %v", r.Response)
		}
		readBack = uint32(r.Data[0]) | uint32(r.Data[1])<<8
		doneAt = c.Now()
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if readBack != 0x1234 {
		t.Errorf("readBack = %#x", readBack)
	}
	// Both transactions consumed scheduled kernel time >= their latencies.
	if doneAt < sim.NS(30) {
		t.Errorf("AT round trip finished at %v, want >= 30 ns", doneAt)
	}
}

func TestATQueuesBackToBack(t *testing.T) {
	k := sim.NewKernel()
	mem := NewMemory("ram", 0, 64)
	mem.WriteLatency = sim.NS(10)
	req := NewATRequester(k, "cpu")
	at := NewATTarget(k, "ram.at", mem, req)
	req.Bind(at)
	done := 0
	k.Thread("cpu", func(c *sim.ThreadCtx) {
		for i := 0; i < 5; i++ {
			w := NewWrite(uint64(i), []byte{byte(i)})
			req.Transact(c, w)
			if w.Response.OK() {
				done++
			}
		}
	})
	if err := k.Run(sim.TimeMax); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if done != 5 {
		t.Errorf("completed %d/5 transactions", done)
	}
	for i := 0; i < 5; i++ {
		if mem.Peek(uint64(i), 1)[0] != byte(i) {
			t.Errorf("mem[%d] = %d", i, mem.Peek(uint64(i), 1)[0])
		}
	}
}

func TestPhaseSyncStrings(t *testing.T) {
	if PhaseBeginReq.String() != "BEGIN_REQ" || PhaseEndResp.String() != "END_RESP" {
		t.Error("phase strings wrong")
	}
}

// Property: memory write-then-read returns the written bytes for any
// in-range address/data, and out-of-range always yields address-error.
func TestPropertyMemoryRoundTrip(t *testing.T) {
	m := NewMemory("ram", 0x100, 512)
	f := func(off uint16, val []byte) bool {
		if len(val) == 0 {
			return true
		}
		if len(val) > 32 {
			val = val[:32]
		}
		addr := 0x100 + uint64(off)%512
		var d sim.Time
		w := NewWrite(addr, val)
		m.BTransport(w, &d)
		r := NewRead(addr, len(val))
		m.BTransport(r, &d)
		inRange := addr-0x100+uint64(len(val)) <= 512
		if !inRange {
			return w.Response == RespAddressError && r.Response == RespAddressError
		}
		return w.Response.OK() && r.Response.OK() && bytes.Equal(r.Data, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stuck-at fault forces the bit on every read regardless of
// writes, and ClearFaults restores write-through behaviour.
func TestPropertyStuckAtDominates(t *testing.T) {
	f := func(bit uint8, value bool, writes []byte) bool {
		m := NewMemory("ram", 0, 8)
		b := uint(bit % 8)
		if err := m.StuckAt(3, b, value); err != nil {
			return false
		}
		var d sim.Time
		for _, w := range writes {
			p := NewWrite(3, []byte{w})
			m.BTransport(p, &d)
			q := NewRead(3, 1)
			m.BTransport(q, &d)
			got := q.Data[0]>>b&1 == 1
			if got != value {
				return false
			}
		}
		m.ClearFaults()
		p := NewWrite(3, []byte{0xa5})
		m.BTransport(p, &d)
		q := NewRead(3, 1)
		m.BTransport(q, &d)
		return q.Data[0] == 0xa5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLTTransaction(b *testing.B) {
	m := NewMemory("ram", 0, 4096)
	m.ReadLatency = sim.NS(10)
	r := NewRouter("bus")
	r.MustMap("ram", 0, 4096, m)
	s := NewInitiatorSocket("cpu")
	s.Bind(r)
	var d sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewRead(uint64(i%4096), 1)
		s.BTransport(p, &d)
	}
}

func BenchmarkDMIAccess(b *testing.B) {
	m := NewMemory("ram", 0, 4096)
	m.AllowDMI = true
	var dmi DMIData
	if !m.GetDMIPtr(NewRead(0, 1), &dmi) {
		b.Fatal("DMI denied")
	}
	b.ResetTimer()
	var sum byte
	for i := 0; i < b.N; i++ {
		sum += dmi.Ptr[i%4096]
	}
	_ = sum
}
