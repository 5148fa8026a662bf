package tlm

import (
	"fmt"

	"repro/internal/sim"
)

// Target is the blocking-transport interface a TLM target implements.
type Target interface {
	// BTransport executes the transaction, annotating consumed time
	// onto *delay (loosely-timed style: the caller's local time offset
	// advances; simulated time does not move inside the call).
	BTransport(p *Payload, delay *sim.Time)
}

// DebugTarget is optionally implemented by targets that support
// zero-time debug access (backdoor reads for monitors and injectors).
type DebugTarget interface {
	// TransportDbg performs the access without timing or side effects
	// and returns the number of bytes transferred.
	TransportDbg(p *Payload) int
}

// DMIData describes a direct memory interface grant: a host-memory
// window the initiator may access without transactions.
type DMIData struct {
	Ptr          []byte // backing storage for [StartAddr, EndAddr]
	StartAddr    uint64
	EndAddr      uint64
	ReadAllowed  bool
	WriteAllowed bool
	ReadLatency  sim.Time // per-beat latency to account during DMI use
	WriteLatency sim.Time
}

// Contains reports whether addr lies inside the granted window.
func (d *DMIData) Contains(addr uint64) bool {
	return addr >= d.StartAddr && addr <= d.EndAddr
}

// DMITarget is optionally implemented by targets that can grant DMI.
type DMITarget interface {
	// GetDMIPtr requests a DMI window covering p.Address. It returns
	// false when DMI is denied.
	GetDMIPtr(p *Payload, dmi *DMIData) bool
}

// InitiatorSocket is the initiator-side binding point. It forwards
// blocking transport calls to the bound target and offers convenience
// read/write helpers.
//
// Read32 and Write32 carry their transaction in a payload and a 4-byte
// buffer the socket owns, so a word access does not allocate. Two
// consequences: the helpers are not reentrant on one socket (a target
// must not call back into the socket it is serving, and one socket
// must not be driven from two goroutines), and a target must not
// retain the *Payload, or its Data slice, after BTransport returns.
type InitiatorSocket struct {
	name   string
	target Target

	scratch Payload
	buf     [4]byte
}

// NewInitiatorSocket creates a named, unbound initiator socket.
func NewInitiatorSocket(name string) *InitiatorSocket {
	return &InitiatorSocket{name: name}
}

// Name reports the socket name.
func (s *InitiatorSocket) Name() string { return s.name }

// Bind connects the socket to a target. Binding twice is a wiring bug
// and panics during elaboration rather than corrupting a simulation.
func (s *InitiatorSocket) Bind(t Target) {
	if s.target != nil {
		panic(fmt.Sprintf("tlm: socket %q already bound", s.name))
	}
	s.target = t
}

// Bound reports whether the socket has a target.
func (s *InitiatorSocket) Bound() bool { return s.target != nil }

// BTransport forwards the transaction to the bound target.
func (s *InitiatorSocket) BTransport(p *Payload, delay *sim.Time) {
	if s.target == nil {
		panic(fmt.Sprintf("tlm: socket %q not bound", s.name))
	}
	s.target.BTransport(p, delay)
}

// TransportDbg forwards a debug access; it returns 0 when the bound
// target has no debug interface.
func (s *InitiatorSocket) TransportDbg(p *Payload) int {
	if dt, ok := s.target.(DebugTarget); ok {
		return dt.TransportDbg(p)
	}
	return 0
}

// GetDMIPtr forwards a DMI request; it returns false when the target
// cannot grant DMI.
func (s *InitiatorSocket) GetDMIPtr(p *Payload, dmi *DMIData) bool {
	if dt, ok := s.target.(DMITarget); ok {
		return dt.GetDMIPtr(p, dmi)
	}
	return false
}

// Read performs a blocking read of n bytes at addr and returns the data
// and response.
func (s *InitiatorSocket) Read(addr uint64, n int, delay *sim.Time) ([]byte, Response) {
	p := NewRead(addr, n)
	s.BTransport(p, delay)
	return p.Data, p.Response
}

// Write performs a blocking write of data at addr.
func (s *InitiatorSocket) Write(addr uint64, data []byte, delay *sim.Time) Response {
	p := NewWrite(addr, data)
	s.BTransport(p, delay)
	return p.Response
}

// word re-initializes the socket-owned scratch payload for a one-word
// transaction, field by field: whatever the previous target left on it
// (response, extensions, a swapped data slice) is cleared.
func (s *InitiatorSocket) word(cmd Command, addr uint64) *Payload {
	p := &s.scratch
	p.Command, p.Address, p.Data, p.ByteEnable = cmd, addr, s.buf[:], nil
	p.Response, p.DMIAllowed, p.ext = RespIncomplete, false, nil
	return p
}

// Read32 reads a little-endian 32-bit word without allocating; see the
// type comment for the reentrancy rule.
func (s *InitiatorSocket) Read32(addr uint64, delay *sim.Time) (uint32, Response) {
	s.buf = [4]byte{}
	p := s.word(CmdRead, addr)
	s.BTransport(p, delay)
	if !p.Response.OK() {
		return 0, p.Response
	}
	data := p.Data
	return uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24, p.Response
}

// Write32 writes a little-endian 32-bit word without allocating; see
// the type comment for the reentrancy rule.
func (s *InitiatorSocket) Write32(addr uint64, v uint32, delay *sim.Time) Response {
	s.buf = [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	p := s.word(CmdWrite, addr)
	s.BTransport(p, delay)
	return p.Response
}

// TargetFunc adapts a plain function to the Target interface.
type TargetFunc func(p *Payload, delay *sim.Time)

// BTransport implements Target.
func (f TargetFunc) BTransport(p *Payload, delay *sim.Time) { f(p, delay) }
