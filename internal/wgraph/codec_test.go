package wgraph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/xrand"
)

func TestCodecRoundTrip(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), got.Edges()) || got.NumNodes() != g.NumNodes() {
		t.Fatal("round-trip mismatch")
	}
}

func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(40)
		b := NewBuilder(n, n*3)
		b.SetNumNodes(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)), float32(rng.Float64()))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Edges(), got.Edges()) && got.NumNodes() == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("WRONGMAG"))); err == nil {
		t.Error("bad magic accepted")
	}
	g := triangle()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt an edge endpoint beyond the node count.
	raw := buf.Bytes()
	raw[len(codecMagic)+12+4] = 0xff // first edge's 'to' high byte
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

func TestCodecFiles(t *testing.T) {
	g := triangle()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatal("file round-trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// encodeV1 writes g in the legacy version-1 format (no version byte, no
// checksum trailer), as pre-durability builds of the codec did.
func encodeV1(g *Graph) []byte {
	var buf bytes.Buffer
	buf.WriteString("SIMGRF01")
	var b [12]byte
	le := binary.LittleEndian
	le.PutUint32(b[:4], uint32(g.NumNodes()))
	buf.Write(b[:4])
	le.PutUint64(b[:8], uint64(g.NumEdges()))
	buf.Write(b[:8])
	for u := 0; u < g.NumNodes(); u++ {
		to, ws := g.Out(ids.UserID(u))
		for i := range to {
			le.PutUint32(b[:4], uint32(u))
			le.PutUint32(b[4:8], uint32(to[i]))
			le.PutUint32(b[8:12], floatBits(ws[i]))
			buf.Write(b[:12])
		}
	}
	return buf.Bytes()
}

// TestCodecLoadsLegacyV1 pins that a well-formed version-1 snapshot is
// refused: v1 carries no checksum trailer, and every load verifies one.
func TestCodecLoadsLegacyV1(t *testing.T) {
	_, err := Load(bytes.NewReader(encodeV1(triangle())))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("legacy v1 load: err %v, want a bad-magic rejection", err)
	}
}

// TestCodecDetectsCorruption flips every byte of a valid v2 stream in
// turn; each flip must be rejected (checksum, magic, or range check) —
// silent mis-loads are what the trailer exists to prevent.
func TestCodecDetectsCorruption(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", i, len(raw))
		}
	}
}

// TestCodecRejectsTrailingGarbage pins that the declared edge count must
// exhaust the stream.
func TestCodecRejectsTrailingGarbage(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	withTail := append(buf.Bytes(), 0xAA)
	if _, err := Load(bytes.NewReader(withTail)); err == nil {
		t.Error("stream with trailing garbage accepted")
	}
}

// TestLoadFileWrapsPath pins that a corrupt file's error names the file.
func TestLoadFileWrapsPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(path, []byte("SIMGRF02 not a real graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("corrupt file accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file", err)
	}
}
