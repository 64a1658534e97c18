// Package core implements DIMM-Link, the paper's contribution: a packet-
// routed interconnect between adjacent DIMMs for near-memory processing.
//
// This file implements the DIMM-Link protocol's transaction and data-link
// layers (Figure 3): packets made of 128-bit flits, a 64-bit header with
// SRC/DST/CMD/ADDR/TAG/LEN fields, and a tail carrying a CRC-32 and the DLL
// retry/credit field. The physical layer (SerDes links, DL-Bridge) is
// modeled by internal/noc; the function layer (memory access, broadcast,
// synchronization, CPU-forwarding requests) is implemented by the Link
// interconnect in dimmlink.go.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/noc"
)

// FlitBytes is the size of one DL flit: 128 bits, the flit the links
// serialize.
const FlitBytes = noc.FlitBytes

// MaxPayload is the largest payload one DL packet carries (32 flits total,
// 256 bytes of payload).
const MaxPayload = 256

// HeaderBytes is the size of the 64-bit packet header.
const HeaderBytes = 8

// TailBytes is the size of the packet tail: 32-bit CRC plus the 32-bit DLL
// field (ack sequence + credit bits).
const TailBytes = 8

// Cmd is the 4-bit command of a DL transaction.
type Cmd uint8

// DL transaction commands (function layer operations of Section III-B).
const (
	CmdReadReq   Cmd = iota // remote memory read request (no payload)
	CmdReadResp             // read-return data
	CmdWriteReq             // remote memory write (payload = data)
	CmdWriteAck             // write acknowledgment
	CmdBroadcast            // inter-DIMM broadcast (DST ignored)
	CmdSync                 // synchronization message
	CmdFwdReq               // CPU-forwarding request registration (polling proxy)
	CmdAck                  // DLL-layer ACK
	cmdLimit
)

func (c Cmd) String() string {
	switch c {
	case CmdReadReq:
		return "READ_REQ"
	case CmdReadResp:
		return "READ_RESP"
	case CmdWriteReq:
		return "WRITE_REQ"
	case CmdWriteAck:
		return "WRITE_ACK"
	case CmdBroadcast:
		return "BROADCAST"
	case CmdSync:
		return "SYNC"
	case CmdFwdReq:
		return "FWD_REQ"
	case CmdAck:
		return "ACK"
	default:
		return fmt.Sprintf("Cmd(%d)", uint8(c))
	}
}

// Field widths of the 64-bit header. 6+6+4+37+6+5 = 64.
const (
	srcBits  = 6
	dstBits  = 6
	cmdBits  = 4
	addrBits = 37 // the DIMM-ID bits of the 42-bit physical address are
	// carried by DST, so only the intra-DIMM offset travels in ADDR
	tagBits = 6
	lenBits = 5
)

// MaxDIMMs is the largest DIMM ID addressable by the SRC/DST fields.
const MaxDIMMs = 1 << srcBits

// MaxTag is the number of outstanding transaction tags.
const MaxTag = 1 << tagBits

// Packet is one DL transaction-layer packet.
type Packet struct {
	Src  int    // source DIMM ID
	Dst  int    // destination DIMM ID (ignored for broadcasts)
	Cmd  Cmd    //
	Addr uint64 // intra-DIMM address offset (37 bits)
	Tag  uint8  // transaction tag matching request and response
	Data []byte // payload (nil for header-only packets)
}

// Flits returns the number of 128-bit flits the packet occupies: one flit
// of header+tail plus the payload flits. LEN=0 therefore means a single
// flit, exactly as in the paper ("LEN=0 means there is only one flit").
func (p *Packet) Flits() int {
	return 1 + (len(p.Data)+FlitBytes-1)/FlitBytes
}

// WireBytes returns the packet's size on the link, rounded to whole flits.
func (p *Packet) WireBytes() int { return p.Flits() * FlitBytes }

// Validate checks field ranges before encoding.
func (p *Packet) Validate() error {
	switch {
	case p.Src < 0 || p.Src >= MaxDIMMs:
		return fmt.Errorf("core: SRC %d out of range", p.Src)
	case p.Dst < 0 || p.Dst >= MaxDIMMs:
		return fmt.Errorf("core: DST %d out of range", p.Dst)
	case p.Cmd >= cmdLimit:
		return fmt.Errorf("core: CMD %d out of range", p.Cmd)
	case p.Addr >= 1<<addrBits:
		return fmt.Errorf("core: ADDR %#x exceeds %d bits", p.Addr, addrBits)
	case len(p.Data) > MaxPayload:
		return fmt.Errorf("core: payload %d exceeds %d bytes", len(p.Data), MaxPayload)
	}
	return nil
}

// header packs the 64-bit header word.
func (p *Packet) header() uint64 {
	lenFlits := uint64((len(p.Data) + FlitBytes - 1) / FlitBytes)
	h := uint64(p.Src)
	h = h<<dstBits | uint64(p.Dst)
	h = h<<cmdBits | uint64(p.Cmd)
	h = h<<addrBits | p.Addr
	h = h<<tagBits | uint64(p.Tag&(MaxTag-1))
	h = h<<lenBits | lenFlits
	return h
}

// Encode serializes the packet into wire format: header word, payload
// padded to whole flits, and the tail (CRC-32 over header+payload, plus the
// DLL word). The result length is WireBytes().
func (p *Packet) Encode(dll uint32) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, p.WireBytes())
	binary.LittleEndian.PutUint64(buf[0:8], p.header())
	copy(buf[HeaderBytes:], p.Data)
	crcEnd := len(buf) - TailBytes
	crc := crc32.ChecksumIEEE(buf[:crcEnd])
	binary.LittleEndian.PutUint32(buf[crcEnd:], crc)
	binary.LittleEndian.PutUint32(buf[crcEnd+4:], dll)
	return buf, nil
}

// Decode parses a wire-format packet, verifying the CRC. It returns the
// packet, the DLL word, and an error if the buffer is malformed or the CRC
// check fails (which, in hardware, triggers the DLL retry path).
func Decode(buf []byte) (*Packet, uint32, error) {
	if len(buf) < FlitBytes || len(buf)%FlitBytes != 0 {
		return nil, 0, fmt.Errorf("core: packet length %d not whole flits", len(buf))
	}
	h := binary.LittleEndian.Uint64(buf[0:8])
	lenFlits := int(h & (1<<lenBits - 1))
	h >>= lenBits
	tag := uint8(h & (MaxTag - 1))
	h >>= tagBits
	addr := h & (1<<addrBits - 1)
	h >>= addrBits
	cmd := Cmd(h & (1<<cmdBits - 1))
	h >>= cmdBits
	dst := int(h & (1<<dstBits - 1))
	h >>= dstBits
	src := int(h & (1<<srcBits - 1))

	wantFlits := 1 + lenFlits
	if len(buf) != wantFlits*FlitBytes {
		return nil, 0, fmt.Errorf("core: LEN says %d flits, buffer has %d", wantFlits, len(buf)/FlitBytes)
	}
	crcEnd := len(buf) - TailBytes
	gotCRC := binary.LittleEndian.Uint32(buf[crcEnd:])
	if want := crc32.ChecksumIEEE(buf[:crcEnd]); gotCRC != want {
		return nil, 0, fmt.Errorf("core: CRC mismatch (got %#x, want %#x)", gotCRC, want)
	}
	dll := binary.LittleEndian.Uint32(buf[crcEnd+4:])

	p := &Packet{Src: src, Dst: dst, Cmd: cmd, Addr: addr, Tag: tag}
	if lenFlits > 0 {
		p.Data = make([]byte, lenFlits*FlitBytes)
		copy(p.Data, buf[HeaderBytes:crcEnd])
	}
	if cmd >= cmdLimit {
		return nil, 0, fmt.Errorf("core: unknown command %d", cmd)
	}
	return p, dll, nil
}

// NumChunks returns the number of DL packets a transfer of size bytes
// occupies: one per MaxPayload bytes or part of it, and a single
// header-only packet for a zero size.
func NumChunks(size uint32) int {
	if size == 0 {
		return 1
	}
	return int((size + MaxPayload - 1) / MaxPayload)
}

// ChunkAt returns the payload size of packet i of a transfer of size bytes.
// i must be in [0, NumChunks(size)): every chunk is MaxPayload except a
// final remainder.
func ChunkAt(size uint32, i int) uint32 {
	if rem := size - uint32(i)*MaxPayload; rem < MaxPayload {
		return rem
	}
	return MaxPayload
}
