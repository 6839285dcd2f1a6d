package dataset

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/xrand"
)

func tinyDataset() *Dataset {
	b := graph.NewBuilder(4, 4)
	b.SetNumNodes(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return &Dataset{
		Graph: b.Build(),
		Tweets: []Tweet{
			{Author: 0, Time: 0, Topic: 1},
			{Author: 1, Time: 5, Topic: 2},
		},
		Actions: []Action{
			{User: 1, Tweet: 0, Time: 2},
			{User: 2, Tweet: 0, Time: 4},
			{User: 2, Tweet: 1, Time: 6},
			{User: 3, Tweet: 0, Time: 8},
			{User: 3, Tweet: 1, Time: 9},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"author-range", func(d *Dataset) { d.Tweets[0].Author = 99 }},
		{"action-user-range", func(d *Dataset) { d.Actions[0].User = 99 }},
		{"action-tweet-range", func(d *Dataset) { d.Actions[0].Tweet = 99 }},
		{"action-before-publication", func(d *Dataset) { d.Actions[2].Time = 1 }},
		{"unsorted", func(d *Dataset) { d.Actions[0].Time = 100 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := tinyDataset()
			c.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
}

func TestSplitByFraction(t *testing.T) {
	d := tinyDataset()
	s, err := d.SplitByFraction(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Train) != 4 || len(s.Test) != 1 {
		t.Fatalf("split sizes %d/%d", len(s.Train), len(s.Test))
	}
	if s.Test[0].Time < s.Train[len(s.Train)-1].Time {
		t.Error("test precedes train")
	}
	if s.Cut != s.Test[0].Time {
		t.Errorf("cut %v, want %v", s.Cut, s.Test[0].Time)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := d.SplitByFraction(bad); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
	// A split leaving one side empty errors.
	tiny := &Dataset{Graph: d.Graph, Tweets: d.Tweets, Actions: d.Actions[:1]}
	if _, err := tiny.SplitByFraction(0.5); err == nil {
		t.Error("degenerate split accepted")
	}
}

func TestCounts(t *testing.T) {
	d := tinyDataset()
	rc := RetweetCounts(d.NumTweets(), d.Actions)
	if !reflect.DeepEqual(rc, []int32{3, 2}) {
		t.Errorf("RetweetCounts = %v", rc)
	}
	uc := UserRetweetCounts(d.NumUsers(), d.Actions)
	if !reflect.DeepEqual(uc, []int32{0, 1, 2, 2}) {
		t.Errorf("UserRetweetCounts = %v", uc)
	}
}

func TestClassifyUsers(t *testing.T) {
	classes := ClassifyUsers([]int32{0, 5, 50, 500}, 10, 100)
	want := []ActivityClass{LowActivity, LowActivity, ModerateActivity, IntensiveActivity}
	if !reflect.DeepEqual(classes, want) {
		t.Errorf("classes = %v", classes)
	}
	if LowActivity.String() != "low" || IntensiveActivity.String() != "intensive" {
		t.Error("class names wrong")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(30)
		b := graph.NewBuilder(n, n*3)
		b.SetNumNodes(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)))
		}
		d := &Dataset{Graph: b.Build()}
		for i := 0; i < 20; i++ {
			d.Tweets = append(d.Tweets, Tweet{
				Author: ids.UserID(rng.Intn(n)),
				Time:   ids.Timestamp(rng.Intn(1000)),
				Topic:  int16(rng.Intn(8)),
			})
		}
		for i := 0; i < 50; i++ {
			ti := ids.TweetID(rng.Intn(20))
			d.Actions = append(d.Actions, Action{
				User:  ids.UserID(rng.Intn(n)),
				Tweet: ti,
				Time:  d.Tweets[ti].Time + ids.Timestamp(rng.Intn(500)),
			})
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(d.Tweets, got.Tweets) &&
			reflect.DeepEqual(d.Actions, got.Actions) &&
			got.Graph.NumEdges() == d.Graph.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("SIM"))); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated body.
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := tinyDataset()
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func assertEqualDatasets(t *testing.T, want, got *Dataset) {
	t.Helper()
	if !reflect.DeepEqual(want.Tweets, got.Tweets) {
		t.Error("tweets differ after round-trip")
	}
	if !reflect.DeepEqual(want.Actions, got.Actions) {
		t.Error("actions differ after round-trip")
	}
	if got.Graph.NumNodes() != want.Graph.NumNodes() || got.Graph.NumEdges() != want.Graph.NumEdges() {
		t.Error("graph differs after round-trip")
	}
	for u := 0; u < want.Graph.NumNodes(); u++ {
		if !reflect.DeepEqual(want.Graph.Out(ids.UserID(u)), got.Graph.Out(ids.UserID(u))) {
			t.Fatalf("adjacency of %d differs", u)
		}
	}
}

// encodeV1 writes d in the legacy version-1 format (no version byte, no
// checksum trailer), as pre-durability builds of the codec did.
func encodeV1(d *Dataset) []byte {
	var buf bytes.Buffer
	buf.WriteString("SIMREC01")
	le := binary.LittleEndian
	var b [16]byte
	le.PutUint32(b[:4], uint32(d.NumUsers()))
	buf.Write(b[:4])
	le.PutUint64(b[:8], uint64(d.Graph.NumEdges()))
	buf.Write(b[:8])
	for u := 0; u < d.NumUsers(); u++ {
		for _, v := range d.Graph.Out(ids.UserID(u)) {
			le.PutUint32(b[:4], uint32(u))
			le.PutUint32(b[4:8], uint32(v))
			buf.Write(b[:8])
		}
	}
	le.PutUint32(b[:4], uint32(len(d.Tweets)))
	buf.Write(b[:4])
	for _, t := range d.Tweets {
		le.PutUint32(b[:4], uint32(t.Author))
		le.PutUint64(b[4:12], uint64(t.Time))
		le.PutUint16(b[12:14], uint16(t.Topic))
		buf.Write(b[:14])
	}
	le.PutUint64(b[:8], uint64(len(d.Actions)))
	buf.Write(b[:8])
	for _, a := range d.Actions {
		le.PutUint32(b[:4], uint32(a.User))
		le.PutUint32(b[4:8], uint32(a.Tweet))
		le.PutUint64(b[8:16], uint64(a.Time))
		buf.Write(b[:16])
	}
	return buf.Bytes()
}

// TestCodecLoadsLegacyV1 pins that a well-formed version-1 dataset is
// refused: v1 carries no checksum trailer, and every load verifies one.
func TestCodecLoadsLegacyV1(t *testing.T) {
	_, err := Load(bytes.NewReader(encodeV1(tinyDataset())))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("legacy v1 load: err %v, want a bad-magic rejection", err)
	}
}

// TestCodecDetectsCorruption flips every byte of a valid v2 stream in
// turn; each flip must be rejected (checksum, magic, or range check).
func TestCodecDetectsCorruption(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
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

// TestCodecRejectsTrailingGarbage pins that the declared payload must
// exhaust the stream.
func TestCodecRejectsTrailingGarbage(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
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
	if err := os.WriteFile(path, []byte("SIMREC02 not a real dataset"), 0o644); err != nil {
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
