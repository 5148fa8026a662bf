package ecu

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/tlm"
)

// ECC implements SECDED (single-error-correct, double-error-detect)
// Hamming coding of 32-bit words: 6 Hamming check bits plus one
// overall parity bit. It is the canonical memory protection mechanism
// whose diagnostic coverage the FMEDA experiments credit.

// ECCStatus is the result of decoding a protected word.
type ECCStatus uint8

const (
	// ECCOk: no error.
	ECCOk ECCStatus = iota
	// ECCCorrected: a single bit error was corrected.
	ECCCorrected
	// ECCUncorrectable: a double bit error was detected.
	ECCUncorrectable
)

// String names the status.
func (s ECCStatus) String() string {
	switch s {
	case ECCOk:
		return "ok"
	case ECCCorrected:
		return "corrected"
	case ECCUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("ECCStatus(%d)", uint8(s))
	}
}

// codeword layout: positions 1..38; check bits at powers of two
// (1,2,4,8,16,32), data bits fill the remaining 32 positions in
// ascending order. Position 0 holds the overall parity bit.

// dataPositions[i] is the codeword position of data bit i.
var dataPositions = func() [32]int {
	var out [32]int
	i := 0
	for pos := 1; pos <= 38 && i < 32; pos++ {
		if pos&(pos-1) == 0 { // power of two: check bit
			continue
		}
		out[i] = pos
		i++
	}
	return out
}()

// checkMasks[b] selects the data bits whose codeword position has bit
// b set: Hamming check bit b is the parity of data&checkMasks[b].
var checkMasks = func() [6]uint32 {
	var out [6]uint32
	for b := range out {
		for i, pos := range dataPositions {
			if pos&(1<<b) != 0 {
				out[b] |= 1 << i
			}
		}
	}
	return out
}()

// syndromeBit maps a Hamming syndrome to the data bit it locates, or
// -1 when the syndrome names no data position (0 or a check bit).
var syndromeBit = func() [64]int8 {
	var out [64]int8
	for i := range out {
		out[i] = -1
	}
	for i, pos := range dataPositions {
		out[pos] = int8(i)
	}
	return out
}()

// parity reports the parity of a 32-bit word as 0 or 1.
func parity(v uint32) uint8 { return uint8(bits.OnesCount32(v) & 1) }

// eccEncode computes the 7 check bits (6 Hamming + overall parity in
// bit 6) for a data word.
func eccEncode(data uint32) uint8 {
	check := parity(data&checkMasks[0]) |
		parity(data&checkMasks[1])<<1 |
		parity(data&checkMasks[2])<<2 |
		parity(data&checkMasks[3])<<3 |
		parity(data&checkMasks[4])<<4 |
		parity(data&checkMasks[5])<<5
	// Overall parity over data bits and the 6 check bits.
	return check | parity(data^uint32(check))<<6
}

// eccDecode checks and (when possible) corrects a received word.
// The syndrome compares received check bits against ones recomputed
// from received data; the overall parity is computed over the whole
// received codeword (data + check + parity bit), so any single flip —
// including in a check bit — makes it odd.
func eccDecode(data uint32, check uint8) (corrected uint32, status ECCStatus) {
	syndrome := (check ^ eccEncode(data)) & 0x3f
	parityErr := parity(data^uint32(check&0x7f)) == 1
	switch {
	case syndrome == 0 && !parityErr:
		return data, ECCOk
	case parityErr:
		// Single-bit error at codeword position = syndrome (0 means
		// the overall parity bit itself flipped; check-bit positions
		// mean a check bit flipped — data unaffected either way).
		if i := syndromeBit[syndrome]; i >= 0 {
			return data ^ 1<<uint(i), ECCCorrected
		}
		return data, ECCCorrected
	default:
		// Non-zero syndrome with good parity: double error.
		return data, ECCUncorrectable
	}
}

// ECCMemory is a word-organized memory target with SECDED protection:
// reads transparently correct single-bit upsets and fail (bus error)
// on uncorrectable double errors. Accesses must be 4-byte aligned
// whole words, matching the AE32 bus.
type ECCMemory struct {
	name  string
	base  uint64
	words []uint32
	check []uint8

	// digest is the content digest HashState folds instead of the
	// codeword arrays: the sum mod 2^64 of cellDigest over all cells,
	// kept current at every site that stores a codeword (see setCell).
	// zeroDigest is its value for the all-zero image Clear restores.
	digest     uint64
	zeroDigest uint64

	ReadLatency  sim.Time
	WriteLatency sim.Time

	corrected     uint64
	uncorrectable uint64
	// CorrectionDelay models the extra read latency of an ECC repair
	// (the "error correction that may cause deadline violations" of
	// Sec. 3.4).
	CorrectionDelay sim.Time
}

// zeroCheck is the codeword check byte of a zeroed data word,
// precomputed so bulk initialization does not re-derive it per cell.
var zeroCheck = eccEncode(0)

// maxECCWords bounds the memory so a cell's index, check byte and data
// word pack losslessly into the 64-bit input of cellDigest.
const maxECCWords = 1 << 25

// fmix64 is the murmur3 64-bit finalizer: a bijective mix that spreads
// every input bit over the whole output word.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// cellDigest is cell i's contribution to the content digest: fmix64 of
// the packed (index, check, word) triple, so distinct cells contribute
// independent-looking words and the sum changes whenever any cell
// does. Check bytes hold 7 bits (FlipStoredBit flips at most bit 38).
func cellDigest(i int, word uint32, check uint8) uint64 {
	return fmix64(uint64(i)<<39 | uint64(check&0x7f)<<32 | uint64(word))
}

// NewECCMemory creates size bytes (rounded down to whole words) at
// base.
func NewECCMemory(name string, base uint64, size int) *ECCMemory {
	n := size / 4
	if n > maxECCWords {
		panic(fmt.Sprintf("ecu: ECC memory %q: %d words exceeds %d", name, n, maxECCWords))
	}
	m := &ECCMemory{name: name, base: base, words: make([]uint32, n), check: make([]uint8, n)}
	for i := range m.check {
		m.check[i] = zeroCheck
		m.zeroDigest += cellDigest(i, 0, zeroCheck)
	}
	m.digest = m.zeroDigest
	return m
}

// setCell stores a codeword, keeping the content digest current. Every
// codeword store goes through here.
func (m *ECCMemory) setCell(i int, word uint32, check uint8) {
	m.digest += cellDigest(i, word, check) - cellDigest(i, m.words[i], m.check[i])
	m.words[i] = word
	m.check[i] = check
}

// Clear returns the memory to its freshly constructed all-zero state
// and zeroes the error counters, without reallocating the backing
// arrays. Campaign runners use it to re-seed a reused core's memory
// image between runs.
func (m *ECCMemory) Clear() {
	clear(m.words)
	for i := range m.check {
		m.check[i] = zeroCheck
	}
	m.digest = m.zeroDigest
	m.corrected = 0
	m.uncorrectable = 0
}

// Name reports the instance name.
func (m *ECCMemory) Name() string { return m.name }

// Stats reports corrected and uncorrectable error counts — the
// diagnostic-coverage evidence for FMEDA.
func (m *ECCMemory) Stats() (corrected, uncorrectable uint64) {
	return m.corrected, m.uncorrectable
}

func (m *ECCMemory) index(addr uint64, n int) (int, bool) {
	if addr%4 != 0 || n != 4 {
		return 0, false
	}
	if addr < m.base {
		return 0, false
	}
	i := int((addr - m.base) / 4)
	if i >= len(m.words) {
		return 0, false
	}
	return i, true
}

// BTransport implements tlm.Target.
func (m *ECCMemory) BTransport(p *tlm.Payload, delay *sim.Time) {
	i, ok := m.index(p.Address, len(p.Data))
	if !ok {
		if p.Address%4 != 0 || len(p.Data) != 4 {
			p.Response = tlm.RespBurstError
		} else {
			p.Response = tlm.RespAddressError
		}
		return
	}
	switch p.Command {
	case tlm.CmdRead:
		data, status := eccDecode(m.words[i], m.check[i])
		*delay += m.ReadLatency
		switch status {
		case ECCCorrected:
			m.corrected++
			*delay += m.CorrectionDelay
			// Scrub: write back the corrected word.
			m.setCell(i, data, eccEncode(data))
		case ECCUncorrectable:
			m.uncorrectable++
			p.Response = tlm.RespGenericError
			return
		}
		p.Data[0] = byte(data)
		p.Data[1] = byte(data >> 8)
		p.Data[2] = byte(data >> 16)
		p.Data[3] = byte(data >> 24)
	case tlm.CmdWrite:
		v := uint32(p.Data[0]) | uint32(p.Data[1])<<8 | uint32(p.Data[2])<<16 | uint32(p.Data[3])<<24
		m.setCell(i, v, eccEncode(v))
		*delay += m.WriteLatency
	default:
		p.Response = tlm.RespCommandError
		return
	}
	p.Response = tlm.RespOK
}

// TransportDbg implements tlm.DebugTarget (no correction, no stats).
func (m *ECCMemory) TransportDbg(p *tlm.Payload) int {
	// Debug access works in whole words from the aligned base.
	if p.Address%4 != 0 || len(p.Data)%4 != 0 {
		p.Response = tlm.RespBurstError
		return 0
	}
	n := len(p.Data) / 4
	for w := 0; w < n; w++ {
		i, ok := m.index(p.Address+uint64(4*w), 4)
		if !ok {
			p.Response = tlm.RespAddressError
			return 0
		}
		switch p.Command {
		case tlm.CmdRead:
			v := m.words[i]
			p.Data[4*w] = byte(v)
			p.Data[4*w+1] = byte(v >> 8)
			p.Data[4*w+2] = byte(v >> 16)
			p.Data[4*w+3] = byte(v >> 24)
		case tlm.CmdWrite:
			v := uint32(p.Data[4*w]) | uint32(p.Data[4*w+1])<<8 | uint32(p.Data[4*w+2])<<16 | uint32(p.Data[4*w+3])<<24
			m.setCell(i, v, eccEncode(v))
		}
	}
	p.Response = tlm.RespOK
	return len(p.Data)
}

// FlipStoredBit injects an upset directly into the stored codeword:
// bit 0..31 hits the data word, 32..38 hits the check bits. The ECC
// logic sees it on the next read.
func (m *ECCMemory) FlipStoredBit(addr uint64, bit uint) error {
	i, ok := m.index(addr, 4)
	if !ok {
		return fmt.Errorf("ecu: FlipStoredBit(%#x): unmapped or unaligned", addr)
	}
	switch {
	case bit < 32:
		m.setCell(i, m.words[i]^1<<bit, m.check[i])
	case bit < 39:
		m.setCell(i, m.words[i], m.check[i]^1<<(bit-32))
	default:
		return fmt.Errorf("ecu: FlipStoredBit: bit %d out of codeword", bit)
	}
	return nil
}
