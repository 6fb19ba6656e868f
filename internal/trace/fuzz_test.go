package trace_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/tags"
	"github.com/tagspin/tagspin/internal/trace"
)

// FuzzTraceRead feeds arbitrary bytes to Read. Read must never panic; a
// trace it accepts must survive Write and a second Read unchanged; and
// Observations must either fail or give every snapshot a Time of exactly
// timeUs microseconds. The seed corpus in testdata/fuzz/FuzzTraceRead holds
// lines cut from the golden traces, cut short, and with timestamps at and
// past the time.Duration range. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzTraceRead -fuzztime 60s ./internal/trace/
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
		obs, err := tr.Observations()
		if err != nil {
			return
		}
		next := make(map[tags.EPC]int)
		for i, r := range tr.Records {
			epc, err := tags.ParseEPC(r.EPC)
			if err != nil {
				t.Fatalf("record %d: Observations accepted EPC %q: %v", i, r.EPC, err)
			}
			s := obs[epc][next[epc]]
			next[epc]++
			if s.Time%time.Microsecond != 0 || int64(s.Time/time.Microsecond) != r.TimeMicros {
				t.Fatalf("record %d: timeUs %d became snapshot time %d ns", i, r.TimeMicros, int64(s.Time))
			}
		}
	})
}
