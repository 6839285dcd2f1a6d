package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/crcio"
	"repro/internal/graph"
	"repro/internal/ids"
)

// Binary format (version 2):
//
//	magic "SIMREC02" | version u8
//	| numUsers u32 | numEdges u64 | edges (from u32, to u32)*
//	| numTweets u32 | tweets (author u32, time i64, topic i16)*
//	| numActions u64 | actions (user u32, tweet u32, time i64)*
//	| crc32c u32 of every preceding byte (magic included)
//
// Little-endian throughout. The format favours simplicity and sequential
// IO over compression; a 20k-user dataset is a few tens of MB. The
// trailer turns silent corruption into a load error — a dataset snapshot
// feeds checkpoint recovery, so a flipped byte must be detected, not
// decoded.

const (
	magic        = "SIMREC02"
	codecVersion = 2
)

// Save writes the dataset to w in the binary format.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := crcio.NewWriter(bw)
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	le := binary.LittleEndian
	var buf [16]byte
	buf[0] = codecVersion
	if _, err := cw.Write(buf[:1]); err != nil {
		return err
	}

	le.PutUint32(buf[:4], uint32(d.NumUsers()))
	if _, err := cw.Write(buf[:4]); err != nil {
		return err
	}
	le.PutUint64(buf[:8], uint64(d.Graph.NumEdges()))
	if _, err := cw.Write(buf[:8]); err != nil {
		return err
	}
	for u := 0; u < d.NumUsers(); u++ {
		for _, v := range d.Graph.Out(ids.UserID(u)) {
			le.PutUint32(buf[:4], uint32(u))
			le.PutUint32(buf[4:8], uint32(v))
			if _, err := cw.Write(buf[:8]); err != nil {
				return err
			}
		}
	}

	le.PutUint32(buf[:4], uint32(len(d.Tweets)))
	if _, err := cw.Write(buf[:4]); err != nil {
		return err
	}
	for _, t := range d.Tweets {
		le.PutUint32(buf[:4], uint32(t.Author))
		le.PutUint64(buf[4:12], uint64(t.Time))
		le.PutUint16(buf[12:14], uint16(t.Topic))
		if _, err := cw.Write(buf[:14]); err != nil {
			return err
		}
	}

	le.PutUint64(buf[:8], uint64(len(d.Actions)))
	if _, err := cw.Write(buf[:8]); err != nil {
		return err
	}
	for _, a := range d.Actions {
		le.PutUint32(buf[:4], uint32(a.User))
		le.PutUint32(buf[4:8], uint32(a.Tweet))
		le.PutUint64(buf[8:16], uint64(a.Time))
		if _, err := cw.Write(buf[:16]); err != nil {
			return err
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

// Load reads a dataset previously written by Save, verifies its checksum
// trailer, and rejects streams with bytes past the declared payload.
func Load(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := crcio.NewReader(br)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("dataset: bad magic %q", head)
	}
	var v [1]byte
	if _, err := io.ReadFull(cr, v[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading version: %w", err)
	}
	if v[0] != codecVersion {
		return nil, fmt.Errorf("dataset: unsupported format version %d", v[0])
	}
	le := binary.LittleEndian
	var buf [16]byte

	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, fmt.Errorf("dataset: reading user count: %w", err)
	}
	numUsers := int(le.Uint32(buf[:4]))
	if _, err := io.ReadFull(cr, buf[:8]); err != nil {
		return nil, fmt.Errorf("dataset: reading edge count: %w", err)
	}
	numEdges := le.Uint64(buf[:8])

	// Decode edges into a flat buffer first; the graph itself is only
	// built after the checksum verifies, so a corrupt user count cannot
	// trigger an enormous per-node allocation before the file is rejected.
	type edge struct{ from, to uint32 }
	edges := make([]edge, 0, boundHint(numEdges))
	for i := uint64(0); i < numEdges; i++ {
		if _, err := io.ReadFull(cr, buf[:8]); err != nil {
			return nil, fmt.Errorf("dataset: reading edge %d of %d: %w", i, numEdges, err)
		}
		from, to := le.Uint32(buf[:4]), le.Uint32(buf[4:8])
		if int(from) >= numUsers || int(to) >= numUsers {
			return nil, fmt.Errorf("dataset: edge %d endpoints (%d,%d) out of %d users", i, from, to, numUsers)
		}
		edges = append(edges, edge{from, to})
	}

	if _, err := io.ReadFull(cr, buf[:4]); err != nil {
		return nil, fmt.Errorf("dataset: reading tweet count: %w", err)
	}
	numTweets := int(le.Uint32(buf[:4]))
	tweets := make([]Tweet, 0, boundHint(uint64(numTweets)))
	for i := 0; i < numTweets; i++ {
		if _, err := io.ReadFull(cr, buf[:14]); err != nil {
			return nil, fmt.Errorf("dataset: reading tweet %d of %d: %w", i, numTweets, err)
		}
		tweets = append(tweets, Tweet{
			Author: ids.UserID(le.Uint32(buf[:4])),
			Time:   ids.Timestamp(le.Uint64(buf[4:12])),
			Topic:  int16(le.Uint16(buf[12:14])),
		})
	}

	if _, err := io.ReadFull(cr, buf[:8]); err != nil {
		return nil, fmt.Errorf("dataset: reading action count: %w", err)
	}
	numActions := le.Uint64(buf[:8])
	actions := make([]Action, 0, boundHint(numActions))
	for i := uint64(0); i < numActions; i++ {
		if _, err := io.ReadFull(cr, buf[:16]); err != nil {
			return nil, fmt.Errorf("dataset: reading action %d of %d: %w", i, numActions, err)
		}
		actions = append(actions, Action{
			User:  ids.UserID(le.Uint32(buf[:4])),
			Tweet: ids.TweetID(le.Uint32(buf[4:8])),
			Time:  ids.Timestamp(le.Uint64(buf[8:16])),
		})
	}
	sum := cr.Sum // capture before the trailer passes through the reader
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("dataset: reading checksum trailer: %w", err)
	}
	if got := le.Uint32(buf[:4]); got != sum {
		return nil, fmt.Errorf("dataset: checksum mismatch: file says %08x, payload sums to %08x", got, sum)
	}
	// The declared counts (and trailer) must exhaust the stream.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("dataset: after declared payload: %w", err)
		}
		return nil, fmt.Errorf("dataset: trailing garbage after declared payload")
	}
	b := graph.NewBuilder(numUsers, len(edges))
	b.SetNumNodes(numUsers)
	for _, e := range edges {
		b.AddEdge(ids.UserID(e.from), ids.UserID(e.to))
	}
	return &Dataset{Graph: b.Build(), Tweets: tweets, Actions: actions}, nil
}

// boundHint caps a declared element count when used as a preallocation
// hint: a corrupt count must fail with a short read, not an enormous
// up-front allocation.
func boundHint(n uint64) uint64 {
	if n > 1<<20 {
		return 1 << 20
	}
	return n
}

// SaveFile writes the dataset to path, creating or truncating it.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("dataset: save %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a dataset from path, wrapping any decode error with the
// path so a corrupt snapshot names the file that failed.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s: %w", path, err)
	}
	return d, nil
}
