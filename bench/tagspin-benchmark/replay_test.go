package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/tagspin/tagspin/internal/client"
)

// TestReplayReader checks that the production client decodes exactly the
// generated sessions, after wire quantization, in the order the reader
// rotates them, and that a paced 4 s session at scale 200 ends on time.
func TestReplayReader(t *testing.T) {
	s, err := newSite(7, siteShape{deployments: 1, placements: 1, perSlot: 3, rotations: 2}, true, throughHandler(""))
	if err != nil {
		t.Fatal(err)
	}
	if s.duration != 4*time.Second {
		t.Fatalf("session length %v, want 4s", s.duration)
	}
	group := s.slots[0]
	sessions := make([]wireSession, len(group))
	for k, sess := range group {
		if sessions[k], err = encodeSession(sess.obs, s.duration, s.band); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := newReplayReader(timeScale)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.close()
	rd.setSessions(sessions)
	cfg := client.Config{Duration: s.duration}
	for round := range 2 {
		for k, sess := range group {
			obs, err := client.Collect(context.Background(), rd.addr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := rd.lastServed().session; got != k {
				t.Fatalf("round %d: served session %d, want %d", round, got, k)
			}
			if !reflect.DeepEqual(obs, quantize(sess.obs, s.band)) {
				t.Fatalf("round %d session %d: decoded observations differ from the quantized generated ones", round, k)
			}
		}
	}

	// Pacing: the session takes its scaled length, and its end is on time.
	// The best of three sessions is judged, so one descheduling on a busy
	// machine does not fail the test.
	rd.setPaced(true)
	best := time.Hour
	for range 3 {
		t0 := time.Now()
		if _, err := client.Collect(context.Background(), rd.addr(), cfg); err != nil {
			t.Fatal(err)
		}
		if took, paced := time.Since(t0), s.duration/timeScale; took < paced {
			t.Fatalf("paced collect took %v, shorter than the %v session", took, paced)
		}
		best = min(best, rd.lastServed().drift)
	}
	if best < 0 || best >= time.Millisecond {
		t.Fatalf("ROSpecDone drifted %v from its deadline, want under 1ms", best)
	}
	if n := len(rd.takeDrifts()); n != 3 {
		t.Fatalf("recorded %d paced sessions, want 3", n)
	}
}
