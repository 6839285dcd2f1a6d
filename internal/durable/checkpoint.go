package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/crcio"
	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/wgraph"
)

// A checkpoint is a set of files named ckpt-%016x.{dataset,graph,actions}
// plus a ckpt-%016x.manifest that describes them. Data files are written
// first (each atomically: temp file, fsync, rename); the manifest is
// written last, so a crash at any point leaves either a complete
// checkpoint or files no manifest references — never a manifest pointing
// at half-written state. The actions file holds the engine's live
// observed-action suffix:
//
//	magic "CKPTAC01" | version u8 | count u64
//	| actions (user u32, tweet u32, time i64)*
//	| crc32c u32 of every preceding byte

const (
	actionsMagic   = "CKPTAC01"
	actionsVersion = 1
	manifestSuffix = ".manifest"
)

// CheckpointMeta is the engine state a checkpoint records beyond its
// data files.
type CheckpointMeta struct {
	// WALHWM is the first WAL index not covered by the checkpoint.
	WALHWM uint64
	// ObservedNewest is the newest observed action timestamp.
	ObservedNewest int64
	// TrainLen is the training-prefix length of the dataset's action
	// log; -1 means the whole log.
	TrainLen int64
}

// WriteResult reports one WriteCheckpoint call.
type WriteResult struct {
	// Seq is the sequence number the checkpoint was written under.
	Seq uint64
	// Bytes is the total size of the checkpoint's data files.
	Bytes int64
	// ManifestPath is the path of the installed manifest.
	ManifestPath string
}

// WriteCheckpoint atomically persists one checkpoint — dataset, graph,
// live action suffix, manifest — into dir, under the next free sequence
// number. It never touches existing checkpoints; prune separately with
// PruneCheckpoints.
func WriteCheckpoint(dir string, meta CheckpointMeta, ds *dataset.Dataset, g *wgraph.Graph, actions []dataset.Action) (WriteResult, error) {
	var res WriteResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	manifests, err := listManifests(dir)
	if err != nil {
		return res, err
	}
	seq := uint64(1)
	if len(manifests) > 0 {
		seq = manifests[len(manifests)-1].seq + 1
	}
	base := fmt.Sprintf("ckpt-%016x", seq)
	m := &Manifest{
		Seq:            seq,
		WALHWM:         meta.WALHWM,
		ObservedNewest: meta.ObservedNewest,
		TrainLen:       meta.TrainLen,
	}
	writers := []struct {
		role FileRole
		name string
		save func(io.Writer) error
	}{
		{FileDataset, base + ".dataset", ds.Save},
		{FileGraph, base + ".graph", g.Save},
		{FileActions, base + ".actions", func(w io.Writer) error { return saveActions(w, actions) }},
	}
	for _, wr := range writers {
		size, crc, err := writeFileAtomic(filepath.Join(dir, wr.name), wr.save)
		if err != nil {
			return res, fmt.Errorf("durable: writing checkpoint file %s: %w", wr.name, err)
		}
		m.Files = append(m.Files, ManifestFile{Role: wr.role, Name: wr.name, Size: size, CRC: crc})
		res.Bytes += size
	}
	manifestPath := filepath.Join(dir, base+manifestSuffix)
	enc := EncodeManifest(m)
	if _, _, err := writeFileAtomic(manifestPath, func(w io.Writer) error {
		_, err := w.Write(enc)
		return err
	}); err != nil {
		return res, fmt.Errorf("durable: writing manifest: %w", err)
	}
	res.Seq = seq
	res.ManifestPath = manifestPath
	return res, nil
}

// writeFileAtomic writes path via a temp file in the same directory:
// write, fsync, rename, fsync directory. Returns the file's size and
// CRC32C.
func writeFileAtomic(path string, save func(io.Writer) error) (int64, uint32, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	cw := crcio.NewWriter(&countingWriter{w: f})
	if err := save(cw); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, 0, err
	}
	return cw.W.(*countingWriter).n, cw.Sum, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// saveActions writes the observed-action suffix in the checkpoint's
// action format.
func saveActions(w io.Writer, actions []dataset.Action) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := crcio.NewWriter(bw)
	le := binary.LittleEndian
	var buf [16]byte
	if _, err := cw.Write([]byte(actionsMagic)); err != nil {
		return err
	}
	buf[0] = actionsVersion
	if _, err := cw.Write(buf[:1]); err != nil {
		return err
	}
	le.PutUint64(buf[:8], uint64(len(actions)))
	if _, err := cw.Write(buf[:8]); err != nil {
		return err
	}
	for _, a := range actions {
		le.PutUint32(buf[:4], uint32(a.User))
		le.PutUint32(buf[4:8], uint32(a.Tweet))
		le.PutUint64(buf[8:16], uint64(a.Time))
		if _, err := cw.Write(buf[:16]); err != nil {
			return err
		}
	}
	le.PutUint32(buf[:4], cw.Sum)
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// loadActions reads an action file written by saveActions.
func loadActions(r io.Reader) ([]dataset.Action, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := crcio.NewReader(br)
	le := binary.LittleEndian
	var buf [16]byte
	head := make([]byte, len(actionsMagic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(head) != actionsMagic {
		return nil, fmt.Errorf("bad magic %q", head)
	}
	if _, err := io.ReadFull(cr, buf[:1]); err != nil {
		return nil, fmt.Errorf("reading version: %w", err)
	}
	if buf[0] != actionsVersion {
		return nil, fmt.Errorf("unsupported version %d", buf[0])
	}
	if _, err := io.ReadFull(cr, buf[:8]); err != nil {
		return nil, fmt.Errorf("reading count: %w", err)
	}
	count := le.Uint64(buf[:8])
	hint := count
	if hint > 1<<20 {
		hint = 1 << 20
	}
	actions := make([]dataset.Action, 0, hint)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(cr, buf[:16]); err != nil {
			return nil, fmt.Errorf("reading action %d of %d: %w", i, count, err)
		}
		actions = append(actions, dataset.Action{
			User:  ids.UserID(le.Uint32(buf[:4])),
			Tweet: ids.TweetID(le.Uint32(buf[4:8])),
			Time:  ids.Timestamp(le.Uint64(buf[8:16])),
		})
	}
	sum := cr.Sum
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("reading checksum trailer: %w", err)
	}
	if got := le.Uint32(buf[:4]); got != sum {
		return nil, fmt.Errorf("checksum mismatch: file says %08x, payload sums to %08x", got, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing garbage after %d declared actions", count)
	}
	return actions, nil
}

// Checkpoint is one fully loaded, validated checkpoint.
type Checkpoint struct {
	Manifest *Manifest
	Dataset  *dataset.Dataset
	Graph    *wgraph.Graph
	Actions  []dataset.Action
}

// LoadNewestCheckpoint loads the newest checkpoint in dir whose manifest
// decodes and whose files all validate, falling back to older
// checkpoints when the newest is damaged. It returns (nil, 0, nil) when
// dir holds no usable checkpoint at all — including a missing dir —
// and (nil, skipped, err) with the newest failure when manifests exist
// but none validate. skipped counts the manifests that failed.
func LoadNewestCheckpoint(dir string) (*Checkpoint, int, error) {
	manifests, err := listManifests(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	skipped := 0
	var firstErr error
	for i := len(manifests) - 1; i >= 0; i-- {
		ck, err := loadCheckpoint(dir, manifests[i].path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			skipped++
			continue
		}
		return ck, skipped, nil
	}
	if firstErr != nil {
		return nil, skipped, fmt.Errorf("durable: no usable checkpoint in %s (%d damaged): %w", dir, skipped, firstErr)
	}
	return nil, 0, nil
}

// loadCheckpoint loads and validates one checkpoint by manifest path.
func loadCheckpoint(dir, manifestPath string) (*Checkpoint, error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	ck := &Checkpoint{Manifest: m}
	for _, role := range []FileRole{FileDataset, FileGraph, FileActions} {
		mf := m.File(role)
		if mf == nil {
			return nil, fmt.Errorf("%s: manifest missing file role %d", manifestPath, role)
		}
		path := filepath.Join(dir, mf.Name)
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if st.Size() != mf.Size {
			return nil, fmt.Errorf("%s: size %d does not match manifest's %d", path, st.Size(), mf.Size)
		}
		if err := verifyFileCRC(path, mf.CRC); err != nil {
			return nil, err
		}
		switch role {
		case FileDataset:
			if ck.Dataset, err = dataset.LoadFile(path); err != nil {
				return nil, err
			}
		case FileGraph:
			if ck.Graph, err = wgraph.LoadFile(path); err != nil {
				return nil, err
			}
		case FileActions:
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			ck.Actions, err = loadActions(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("durable: load %s: %w", path, err)
			}
		}
	}
	return ck, nil
}

// verifyFileCRC streams path and checks its whole-file CRC32C against
// the manifest's record, so a checkpoint file that was swapped or
// damaged is rejected independently of its codec's internal trailer.
func verifyFileCRC(path string, want uint32) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := crcio.NewReader(bufio.NewReaderSize(f, 1<<16))
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return err
	}
	if cr.Sum != want {
		return fmt.Errorf("%s: whole-file CRC %08x does not match manifest's %08x", path, cr.Sum, want)
	}
	return nil
}

// PruneCheckpoints deletes all but the newest keep checkpoints (manifest
// plus data files) and reports the lowest WAL high-water mark among the
// survivors — the safe WAL truncation point: as long as a kept
// checkpoint may be needed for recovery, the WAL tail it would replay
// must survive too. With no valid surviving checkpoint the returned mark
// is 0 (truncate nothing).
func PruneCheckpoints(dir string, keep int) (pruned int, oldestKeptHWM uint64, err error) {
	if keep < 1 {
		keep = 1
	}
	manifests, err := listManifests(dir)
	if err != nil {
		return 0, 0, err
	}
	cut := len(manifests) - keep
	for _, mf := range manifests[:max(cut, 0)] {
		if err := removeCheckpointFiles(dir, mf); err != nil {
			return pruned, 0, err
		}
		pruned++
	}
	hwm := uint64(0)
	for _, mf := range manifests[max(cut, 0):] {
		raw, err := os.ReadFile(mf.path)
		if err != nil {
			return pruned, 0, nil // conservative: keep the whole WAL
		}
		m, err := DecodeManifest(raw)
		if err != nil {
			return pruned, 0, nil
		}
		if hwm == 0 || m.WALHWM < hwm {
			hwm = m.WALHWM
		}
	}
	if pruned > 0 {
		if err := syncDir(dir); err != nil {
			return pruned, hwm, err
		}
	}
	return pruned, hwm, nil
}

// removeCheckpointFiles deletes one checkpoint: data files first, the
// manifest last, so a crash mid-prune never leaves a manifest without
// its files.
func removeCheckpointFiles(dir string, mf manifestRef) error {
	if raw, err := os.ReadFile(mf.path); err == nil {
		if m, err := DecodeManifest(raw); err == nil {
			for _, f := range m.Files {
				if err := os.Remove(filepath.Join(dir, f.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
					return err
				}
			}
		}
	}
	return os.Remove(mf.path)
}

type manifestRef struct {
	path string
	seq  uint64
}

// listManifests returns dir's checkpoint manifests sorted by sequence
// number (oldest first). Files that merely look like manifests but do
// not parse a sequence are ignored.
func listManifests(dir string) ([]manifestRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []manifestRef
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, manifestSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), manifestSuffix), "%016x", &seq); err != nil {
			continue
		}
		out = append(out, manifestRef{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}
