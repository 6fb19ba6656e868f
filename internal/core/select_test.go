package core

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/tags"
)

// TestSelectSnapshotsCarrier pins the dominant-carrier rule on multi-carrier
// sessions: the carrier with the most reads wins, a tie goes to the lower
// frequency (zero included), NaN-frequency reads belong to no carrier, and
// the kept reads are the winner's, time-sorted from their input order.
func TestSelectSnapshotsCarrier(t *testing.T) {
	nan := math.NaN()
	// snap tags each read by its input index in Phase, so the expected
	// output names exactly which reads survive and in what order.
	snap := func(i int, ms int, freq float64) phase.Snapshot {
		return phase.Snapshot{Time: time.Duration(ms) * time.Millisecond, Phase: float64(i), FrequencyHz: freq}
	}
	cases := []struct {
		name string
		in   []phase.Snapshot
		want []int  // input indices of the kept reads, in output order
		err  string // when set, the selection fails saying this
	}{
		{
			name: "dominant carrier wins",
			in: []phase.Snapshot{
				snap(0, 5, 915e6), snap(1, 1, 902e6), snap(2, 3, 915e6),
				snap(3, 2, 902e6), snap(4, 4, 915e6),
			},
			want: []int{2, 4, 0},
		},
		{
			name: "tie goes to the lower frequency",
			in: []phase.Snapshot{
				snap(0, 4, 915e6), snap(1, 3, 902e6), snap(2, 2, 915e6), snap(3, 1, 902e6),
			},
			want: []int{3, 1},
		},
		{
			name: "zero is a carrier and wins a tie",
			in: []phase.Snapshot{
				snap(0, 1, 915e6), snap(1, 2, 0), snap(2, 3, 915e6), snap(3, 4, 0),
			},
			want: []int{1, 3},
		},
		{
			name: "NaN reads form no carrier",
			in: []phase.Snapshot{
				snap(0, 1, nan), snap(1, 2, nan), snap(2, 3, nan),
				snap(3, 4, 915e6), snap(4, 5, 915e6),
			},
			want: []int{3, 4},
		},
		{
			// Sorting a handful of reads is stable, so equal times show the
			// order the carrier's reads were copied in.
			name: "equal times keep input order into the sort",
			in: []phase.Snapshot{
				snap(0, 7, 915e6), snap(1, 7, 902e6), snap(2, 7, 915e6), snap(3, 7, 915e6),
			},
			want: []int{0, 2, 3},
		},
		{
			name: "only NaN reads",
			in:   []phase.Snapshot{snap(0, 1, nan), snap(1, 2, nan)},
			err:  "dominant channel has 0 reads, need 2",
		},
		{
			name: "enough reads, but not on one carrier",
			in:   []phase.Snapshot{snap(0, 1, 902e6), snap(1, 2, 915e6), snap(2, 3, 928e6)},
			err:  "dominant channel has 1 reads, need 2",
		},
	}
	l := NewLocator(Config{MinSnapshots: 2})
	for _, tc := range cases {
		got, err := l.selectSnapshots(tc.in)
		if tc.err != "" {
			if !errors.Is(err, ErrTooFewSnapshots) || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want ErrTooFewSnapshots saying %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := make([]phase.Snapshot, len(tc.want))
		for i, idx := range tc.want {
			want[i] = tc.in[idx]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
}

// TestOrderTagsByEPC pins the present-tag order: tags with observations
// only, sorted by EPC bytes, which is also the order of their lowercase hex
// strings. The EPCs straddle the 9/a nibble boundary, where the hex digits
// jump from '9' to 'a' in ASCII.
func TestOrderTagsByEPC(t *testing.T) {
	epc := func(b ...byte) tags.EPC {
		var e tags.EPC
		copy(e[:], b)
		return e
	}
	registered := []SpinningTag{
		{EPC: epc(0xa0)},
		{EPC: epc(0x0a)},
		{EPC: epc(0x9f, 0xff)},
		{EPC: epc(0x09, 0xa0)},
		{EPC: epc(0x09, 0x9f)},
		{EPC: epc(0xa0, 0x01)},
		{EPC: epc(0x55)}, // registered, never observed
	}
	obs := Observations{}
	for _, tag := range registered[:6] {
		obs[tag.EPC] = []phase.Snapshot{{}}
	}
	var got []string
	for _, tag := range orderTags(registered, obs) {
		got = append(got, tag.EPC.String()[:4])
	}
	want := []string{"099f", "09a0", "0a00", "9fff", "a000", "a001"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("order %v is not the hex string order", got)
	}
}
