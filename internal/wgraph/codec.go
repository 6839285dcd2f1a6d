package wgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/crcio"
	"repro/internal/ids"
)

// Binary format (version 2):
//
//	magic "SIMGRF02" | version u8 | numNodes u32 | numEdges u64
//	| edges (from u32, to u32, weight f32)*
//	| crc32c u32 of every preceding byte (magic included)
//
// Little-endian. Edges are written in CSR (from, to) order so loading is
// a single pass with no re-sort. The trailer turns silent snapshot
// corruption (a flipped bit in an edge weight decodes fine) into a load
// error; the version byte lets the format evolve without minting a new
// magic string every time.

const (
	codecMagic   = "SIMGRF02"
	codecVersion = 2
)

// Save writes the graph to w. A 5k-user similarity graph is a few MB;
// building it takes ~10^4 times longer than loading it back.
func (g *Graph) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := crcio.NewWriter(bw)
	if _, err := cw.Write([]byte(codecMagic)); err != nil {
		return err
	}
	le := binary.LittleEndian
	var buf [12]byte
	buf[0] = codecVersion
	if _, err := cw.Write(buf[:1]); err != nil {
		return err
	}
	le.PutUint32(buf[:4], uint32(g.NumNodes()))
	if _, err := cw.Write(buf[:4]); err != nil {
		return err
	}
	le.PutUint64(buf[:8], uint64(g.NumEdges()))
	if _, err := cw.Write(buf[:8]); err != nil {
		return err
	}
	for u := 0; u < g.NumNodes(); u++ {
		to, ws := g.Out(uint32ID(u))
		for i := range to {
			le.PutUint32(buf[:4], uint32(u))
			le.PutUint32(buf[4:8], uint32(to[i]))
			le.PutUint32(buf[8:12], floatBits(ws[i]))
			if _, err := cw.Write(buf[:12]); err != nil {
				return err
			}
		}
	}
	// Trailer: checksum of everything above, written outside the
	// checksummed stream.
	le.PutUint32(buf[:4], cw.Sum)
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a graph written by Save, verifies its checksum trailer, and
// rejects streams with bytes past the declared payload: trailing garbage
// means the file was not produced by Save and cannot be trusted.
func Load(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := crcio.NewReader(br)
	head := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("wgraph: reading magic: %w", err)
	}
	if string(head) != codecMagic {
		return nil, fmt.Errorf("wgraph: bad magic %q", head)
	}
	var v [1]byte
	if _, err := io.ReadFull(cr, v[:]); err != nil {
		return nil, fmt.Errorf("wgraph: reading version: %w", err)
	}
	if v[0] != codecVersion {
		return nil, fmt.Errorf("wgraph: unsupported format version %d", v[0])
	}
	le := binary.LittleEndian
	var buf [12]byte
	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, fmt.Errorf("wgraph: reading node count: %w", err)
	}
	n := int(le.Uint32(buf[:4]))
	if _, err := io.ReadFull(cr, buf[:8]); err != nil {
		return nil, fmt.Errorf("wgraph: reading edge count: %w", err)
	}
	numEdges := le.Uint64(buf[:8])
	// Cap the preallocation hint: a corrupt count must fail with a short
	// read, not an enormous up-front allocation.
	hint := numEdges
	if hint > 1<<20 {
		hint = 1 << 20
	}
	edges := make([]Edge, 0, hint)
	for i := uint64(0); i < numEdges; i++ {
		if _, err := io.ReadFull(cr, buf[:12]); err != nil {
			return nil, fmt.Errorf("wgraph: reading edge %d of %d: %w", i, numEdges, err)
		}
		from, to := le.Uint32(buf[:4]), le.Uint32(buf[4:8])
		if int(from) >= n || int(to) >= n {
			return nil, fmt.Errorf("wgraph: edge %d endpoints (%d,%d) out of %d nodes", i, from, to, n)
		}
		edges = append(edges, Edge{
			From:   uint32ID(int(from)),
			To:     uint32ID(int(to)),
			Weight: bitsFloat(le.Uint32(buf[8:12])),
		})
	}
	sum := cr.Sum // capture before the trailer passes through the reader
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("wgraph: reading checksum trailer: %w", err)
	}
	if got := le.Uint32(buf[:4]); got != sum {
		return nil, fmt.Errorf("wgraph: checksum mismatch: file says %08x, payload sums to %08x", got, sum)
	}
	// The declared edge count (and trailer) must exhaust the stream.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("wgraph: after %d edges: %w", numEdges, err)
		}
		return nil, fmt.Errorf("wgraph: trailing garbage after %d declared edges", numEdges)
	}
	return NewFromEdges(n, edges), nil
}

// SaveFile writes the graph to path, creating or truncating it.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("wgraph: save %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a graph from path, wrapping any decode error with the
// path so a corrupt snapshot names the file that failed.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("wgraph: load %s: %w", path, err)
	}
	return g, nil
}

// uint32ID converts an int node index to the ID type (kept local so the
// codec reads clearly).
func uint32ID(u int) ids.UserID { return ids.UserID(u) }

// floatBits / bitsFloat round-trip float32 through its IEEE-754 bits.
func floatBits(f float32) uint32 { return math.Float32bits(f) }
func bitsFloat(b uint32) float32 { return math.Float32frombits(b) }
