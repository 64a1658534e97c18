package core

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary wire buffers to Decode: corrupted or
// truncated input must return an error, never panic, and any buffer
// Decode accepts must re-encode to the identical bytes (the DLL word is
// carried verbatim, payloads are flit-padded).
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid packets of each shape plus broken variants.
	seeds := []*Packet{
		{Src: 0, Dst: 1, Cmd: CmdReadReq, Addr: 0x1000, Tag: 3},
		{Src: 5, Dst: 2, Cmd: CmdWriteReq, Addr: 0x7ffffffff, Tag: 63, Data: make([]byte, 256)},
		{Src: 63, Dst: 0, Cmd: CmdSync, Addr: 0, Tag: 0, Data: []byte{1, 2, 3}},
		{Src: 1, Dst: 1, Cmd: CmdAck, Addr: 42, Tag: 9, Data: make([]byte, 17)},
	}
	for _, p := range seeds {
		buf, err := p.Encode(2<<16 | 7)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])    // truncated
		f.Add(append([]byte{}, 0)) // runt
		f.Add(make([]byte, 4*16))  // zero flits with wrong LEN
		flip := append([]byte{}, buf...)
		flip[3] ^= 0x10
		f.Add(flip) // corrupted header
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, dll, err := Decode(buf)
		if err != nil {
			return
		}
		// Anything Decode accepts must round-trip byte-identically.
		re, err := p.Encode(dll)
		if err != nil {
			t.Fatalf("decoded packet fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", buf, re)
		}
	})
}

// TestCRCCatchesSingleBitFlips pins the error-detection property the DLL
// retry path relies on: a single-bit flip anywhere in the header, the
// payload (including flit padding), or the stored CRC itself makes
// Decode fail. The final 32-bit DLL word is deliberately outside CRC
// coverage — it is mutated per hop by the link layer (sequence/credit
// updates), exactly like the CRC-exempt DLLP fields of CXL/PCIe — so
// flips there must still decode, with only the DLL word changed.
func TestCRCCatchesSingleBitFlips(t *testing.T) {
	pkts := []*Packet{
		{Src: 3, Dst: 4, Cmd: CmdReadResp, Addr: 0xdeadbeef, Tag: 11, Data: []byte("hello flit padding")},
		{Src: 0, Dst: 63, Cmd: CmdFwdReq, Addr: 1, Tag: 0}, // header-only
	}
	for _, p := range pkts {
		orig, err := p.Encode(1<<16 | 1)
		if err != nil {
			t.Fatal(err)
		}
		crcCovered := len(orig) - 4 // everything but the DLL word
		for bit := 0; bit < len(orig)*8; bit++ {
			buf := append([]byte{}, orig...)
			buf[bit/8] ^= 1 << (bit % 8)
			got, dll, err := Decode(buf)
			if bit < crcCovered*8 {
				if err == nil {
					t.Fatalf("flip of covered bit %d went undetected", bit)
				}
				continue
			}
			// DLL-word flip: must decode, packet fields intact.
			if err != nil {
				t.Fatalf("flip of DLL-word bit %d rejected: %v", bit, err)
			}
			if got.Src != p.Src || got.Dst != p.Dst || got.Cmd != p.Cmd ||
				got.Addr != p.Addr || got.Tag != p.Tag {
				t.Fatalf("DLL-word flip at bit %d changed packet fields", bit)
			}
			if dll == 1<<16|1 {
				t.Fatalf("DLL-word flip at bit %d not visible in DLL word", bit)
			}
		}
	}
}
