// Package epoch provides epoch-stamped scratch sets over dense user ids:
// Has/Add/Del are O(1) array probes and Reset invalidates every mark
// with one epoch bump instead of a clear. The propagation kernel uses
// them for its per-retweet frontier state and the dataset generator for
// its per-tweet cascade marks. The backing array pays an O(n) clear only
// once per 2^32 resets, when the epoch counter wraps.
package epoch

import "repro/internal/ids"

// Marks is an epoch-stamped user set. The zero value must be Reset
// before first use (Reset establishes epoch >= 1, distinguishing live
// stamps from the zeroed array).
type Marks struct {
	epoch uint32
	stamp []uint32
}

// Reset starts a new epoch over at least n slots.
func (m *Marks) Reset(n int) {
	if n > len(m.stamp) {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: hard-clear once and restart
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *Marks) Has(u ids.UserID) bool { return m.stamp[u] == m.epoch }
func (m *Marks) Add(u ids.UserID)      { m.stamp[u] = m.epoch }

// Del unmarks u within the current epoch (0 is never a live epoch).
func (m *Marks) Del(u ids.UserID) { m.stamp[u] = 0 }

// Vec is an epoch-stamped dense float vector: slots not stamped in the
// current epoch read as 0, so the per-call reset of a |V|-sized score
// array costs O(1).
type Vec struct {
	marks Marks
	val   []float64
}

// Reset starts a new epoch over at least n slots.
func (v *Vec) Reset(n int) {
	v.marks.Reset(n)
	if n > len(v.val) {
		v.val = append(v.val, make([]float64, n-len(v.val))...)
	}
}

// Get returns the value at u, or 0 if u is unstamped this epoch.
func (v *Vec) Get(u ids.UserID) float64 {
	if v.marks.Has(u) {
		return v.val[u]
	}
	return 0
}

// Set writes x at u and reports whether this was u's first touch of the
// current epoch (callers use it to maintain a touched-list).
func (v *Vec) Set(u ids.UserID, x float64) bool {
	first := !v.marks.Has(u)
	if first {
		v.marks.Add(u)
	}
	v.val[u] = x
	return first
}

// Index is an epoch-stamped dense map from user to a non-negative int32
// (the propagation kernel records each user's slot in the sparse tweet
// state it scatters); users not set this epoch read as absent.
type Index struct {
	marks Marks
	val   []int32
}

// Reset starts a new epoch over at least n slots.
func (x *Index) Reset(n int) {
	x.marks.Reset(n)
	if n > len(x.val) {
		x.val = append(x.val, make([]int32, n-len(x.val))...)
	}
}

// Get returns u's value and whether it was set this epoch.
func (x *Index) Get(u ids.UserID) (int32, bool) {
	if x.marks.Has(u) {
		return x.val[u], true
	}
	return 0, false
}

// Set writes i at u.
func (x *Index) Set(u ids.UserID, i int32) {
	x.marks.Add(u)
	x.val[u] = i
}
