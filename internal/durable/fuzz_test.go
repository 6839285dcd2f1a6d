package durable

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/crcio"
	"repro/internal/dataset"
)

// validSegmentBytes builds a well-formed segment image for seeding.
func validSegmentBytes(first uint64, actions []dataset.Action) []byte {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	le := binary.LittleEndian
	var b [8]byte
	le.PutUint64(b[:], first)
	buf.Write(b[:])
	for _, a := range actions {
		var p [actionPayloadSize]byte
		p[0] = recordAction
		le.PutUint32(p[1:5], uint32(a.User))
		le.PutUint32(p[5:9], uint32(a.Tweet))
		le.PutUint64(p[9:17], uint64(a.Time))
		le.PutUint32(b[:4], actionPayloadSize)
		le.PutUint32(b[4:8], crcio.Checksum(p[:]))
		buf.Write(b[:8])
		buf.Write(p[:])
	}
	return buf.Bytes()
}

// FuzzWALDecode pins the WAL reader's contract on arbitrary bytes: never
// panic, never allocate unbounded memory, only return an error or a
// valid record prefix whose bookkeeping is internally consistent.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	good := validSegmentBytes(3, testActions(4))
	f.Add(good)
	f.Add(good[:len(good)-5])            // torn tail
	f.Add(append(good, 0xFF, 0xFF))      // garbage tail
	f.Add(validSegmentBytes(0, nil))     // empty segment
	huge := append([]byte(nil), good...) // absurd declared record size
	binary.LittleEndian.PutUint32(huge[segHeaderSize:], 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		records := 0
		st, err := ScanSegment(bytes.NewReader(data), func(idx uint64, a dataset.Action) error {
			records++
			return nil
		})
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if st.Records != records {
			t.Fatalf("stats say %d records, callback saw %d", st.Records, records)
		}
		if st.GoodBytes < int64(segHeaderSize) || st.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d out of [header, len] for %d input bytes", st.GoodBytes, len(data))
		}
		if want := int64(segHeaderSize) + int64(st.Records)*int64(recHeaderSize+actionPayloadSize); st.GoodBytes != want {
			t.Fatalf("GoodBytes %d inconsistent with %d records", st.GoodBytes, st.Records)
		}
		if !st.Torn && st.TornBytes != 0 {
			t.Fatalf("clean scan reports %d torn bytes", st.TornBytes)
		}
		if st.Torn && st.GoodBytes+st.TornBytes > int64(len(data)) {
			t.Fatalf("salvaged %d + torn %d bytes exceed %d input bytes", st.GoodBytes, st.TornBytes, len(data))
		}
	})
}

// FuzzManifestDecode pins the manifest decoder's contract on arbitrary
// bytes: never panic, never allocate unbounded memory, and any input it
// accepts must re-encode to a byte-identical image (the decode is a
// bijection onto valid manifests).
func FuzzManifestDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(EncodeManifest(&Manifest{Seq: 1, WALHWM: 9, ObservedNewest: 100, TrainLen: -1}))
	f.Add(EncodeManifest(&Manifest{
		Seq:   2,
		Files: []ManifestFile{{Role: FileDataset, Name: "d", Size: 10, CRC: 3}, {Role: FileGraph, Name: "g", Size: 4, CRC: 5}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := EncodeManifest(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted manifest is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
