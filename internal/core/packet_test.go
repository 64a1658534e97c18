package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPacketFlitCounts(t *testing.T) {
	cases := []struct {
		payload int
		flits   int
	}{
		{0, 1}, // header-only: LEN=0, single flit
		{1, 2},
		{16, 2},
		{17, 3},
		{64, 5},
		{256, 17}, // max payload
	}
	for _, c := range cases {
		p := Packet{Data: make([]byte, c.payload)}
		if got := p.Flits(); got != c.flits {
			t.Errorf("payload %d: flits = %d, want %d", c.payload, got, c.flits)
		}
		if p.WireBytes() != c.flits*FlitBytes {
			t.Errorf("payload %d: WireBytes = %d", c.payload, p.WireBytes())
		}
	}
}

func TestPacketValidate(t *testing.T) {
	good := Packet{Src: 5, Dst: 63, Cmd: CmdReadReq, Addr: 1<<37 - 1, Tag: 63}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Packet{
		{Src: 64},
		{Dst: -1},
		{Cmd: cmdLimit},
		{Addr: 1 << 37},
		{Data: make([]byte, MaxPayload+1)},
	}
	for i, p := range bads {
		if p.Validate() == nil {
			t.Errorf("bad packet %d accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Packet{
		Src: 3, Dst: 12, Cmd: CmdWriteReq, Addr: 0x1234567890, Tag: 17,
		Data: []byte("hello, DIMM-Link! this payload crosses a flit boundary"),
	}
	const dllWord = 7<<16 | 42 // credits 7 (high half), sequence 42 (low half)
	buf, err := p.Encode(dllWord)
	if err != nil {
		t.Fatal(err)
	}
	got, dll, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Cmd != p.Cmd || got.Addr != p.Addr || got.Tag != p.Tag {
		t.Fatalf("decoded header %+v, want %+v", got, p)
	}
	// Payload is flit-padded on the wire; the prefix must match exactly.
	if !bytes.Equal(got.Data[:len(p.Data)], p.Data) {
		t.Fatalf("payload mismatch")
	}
	if len(got.Data)%FlitBytes != 0 {
		t.Fatalf("decoded payload %d not flit-padded", len(got.Data))
	}
	if dll != dllWord {
		t.Fatalf("DLL word = %#x, want %#x", dll, dllWord)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := Packet{Src: 1, Dst: 2, Cmd: CmdReadResp, Addr: 0xabc, Data: make([]byte, 32)}
	buf, err := p.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: the CRC checker in the router must catch it.
	buf[HeaderBytes+5] ^= 0x10
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("corrupted packet passed CRC")
	}
	// Header corruption is caught too.
	buf2, _ := p.Encode(0)
	buf2[0] ^= 0x01
	if _, _, err := Decode(buf2); err == nil {
		t.Fatal("corrupted header passed CRC")
	}
	// The DLL word is outside the CRC (it is link-local state).
	buf3, _ := p.Encode(0)
	buf3[len(buf3)-1] ^= 0xff
	if _, _, err := Decode(buf3); err != nil {
		t.Fatalf("DLL-only change failed CRC: %v", err)
	}
}

func TestDecodeRejectsMalformedLengths(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, _, err := Decode(make([]byte, 24)); err == nil {
		t.Fatal("non-flit-multiple accepted")
	}
	// LEN field inconsistent with buffer size.
	p := Packet{Data: make([]byte, 32)}
	buf, _ := p.Encode(0)
	if _, _, err := Decode(buf[:FlitBytes]); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(src, dst, tag uint8, cmd uint8, addr uint64, payloadLen uint16, seed byte) bool {
		p := Packet{
			Src:  int(src % MaxDIMMs),
			Dst:  int(dst % MaxDIMMs),
			Cmd:  Cmd(cmd % uint8(cmdLimit)),
			Addr: addr & (1<<37 - 1),
			Tag:  tag % MaxTag,
			Data: make([]byte, int(payloadLen)%(MaxPayload+1)),
		}
		for i := range p.Data {
			p.Data[i] = seed + byte(i)
		}
		buf, err := p.Encode(0)
		if err != nil {
			return false
		}
		got, _, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Src == p.Src && got.Dst == p.Dst && got.Cmd == p.Cmd &&
			got.Addr == p.Addr && got.Tag == p.Tag &&
			bytes.Equal(got.Data[:len(p.Data)], p.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPayload(t *testing.T) {
	cases := []struct {
		size uint32
		want []uint32
	}{
		{0, []uint32{0}},
		{1, []uint32{1}},
		{256, []uint32{256}},
		{257, []uint32{256, 1}},
		{1024, []uint32{256, 256, 256, 256}},
	}
	for _, c := range cases {
		n := NumChunks(c.size)
		if n != len(c.want) {
			t.Fatalf("NumChunks(%d) = %d, want %d", c.size, n, len(c.want))
		}
		var sum uint32
		for i := 0; i < n; i++ {
			got := ChunkAt(c.size, i)
			if got != c.want[i] {
				t.Fatalf("ChunkAt(%d, %d) = %d, want %d", c.size, i, got, c.want[i])
			}
			sum += got
		}
		if sum != c.size {
			t.Fatalf("chunks of %d sum to %d", c.size, sum)
		}
	}
}

func TestCmdStrings(t *testing.T) {
	if CmdReadReq.String() != "READ_REQ" || CmdFwdReq.String() != "FWD_REQ" {
		t.Fatal("command names wrong")
	}
}

// TestPrototypePacketizationCycles pins the Section V-A prototype figure:
// packet generation/decoding completes in ~18 controller cycles without the
// CRC stage (our ASIC configuration budgets 20 cycles with it).
func TestPrototypePacketizationCycles(t *testing.T) {
	if packetizeCycles < 18 || packetizeCycles > 24 {
		t.Fatalf("packetize budget %d cycles, prototype measured 18 + CRC", packetizeCycles)
	}
	if decodeCycles < 18 || decodeCycles > 24 {
		t.Fatalf("decode budget %d cycles", decodeCycles)
	}
}
