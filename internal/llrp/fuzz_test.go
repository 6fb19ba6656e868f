package llrp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadMessage feeds arbitrary bytes to the frame decoder. ReadMessage
// must never panic, and every message it decodes must survive a round
// trip: Encode under the same correlation id, decode again, and get an
// equal id and message back. The seed corpus is Encode's output for every
// message type (sampleMessages), plus a few frames cut short or with
// trailing bytes. Run it beyond the seeds with
//
//	go test -run '^$' -fuzz FuzzReadMessage -fuzztime 60s ./internal/llrp/
func FuzzReadMessage(f *testing.F) {
	for i, msg := range sampleMessages() {
		frame, err := Encode(uint32(i), msg)
		if err != nil {
			f.Fatalf("%v: %v", msg.MsgType(), err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame[:len(frame):len(frame)], 0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		id, msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		frame, err := Encode(id, msg)
		if err != nil {
			t.Fatalf("re-encode %v: %v", msg.MsgType(), err)
		}
		id2, msg2, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-decode %v: %v", msg.MsgType(), err)
		}
		if id2 != id || !reflect.DeepEqual(normalizeReport(msg2), normalizeReport(msg)) {
			t.Fatalf("round trip mismatch: got (%d, %+v), want (%d, %+v)", id2, msg2, id, msg)
		}
	})
}
