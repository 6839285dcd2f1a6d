package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// saveBytes generates the dataset for c and returns its Dataset.Save
// encoding: the whole graph, tweet table and action log, byte for byte.
func saveBytes(t testing.TB, c Config) []byte {
	t.Helper()
	ds, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenDigests pins the generator's output: the first 8 bytes of
// the SHA-256 of the saved dataset at three configurations. Any change
// to the random stream, the cascade rules or the float arithmetic of the
// retweet probabilities moves these digests, so a speed-up of the
// generator that passes here leaves every dataset (and every experiment
// and benchmark figure built on one) unchanged.
func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default_300_seed1", DefaultConfig(300, 1), "f49368801eedceb6"},
		{"default_3000_seed1", DefaultConfig(3000, 1), "b93628f2e50e36b9"},
		{"dense_1500_seed1", DenseFollowConfig(1500, 1), "fe317a5ffdc874ac"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(saveBytes(t, tc.cfg))
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("Save digest = %s, want %s", got, tc.want)
			}
		})
	}
}
