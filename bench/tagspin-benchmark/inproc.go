package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/tagspin/tagspin/internal/core"
)

// inproc drives core.Locator directly: one caller, closed loop, over a pool
// of sessions with one reader placement each. The oracle is each session's
// first answer, computed at set-up; every answer in the run must repeat it
// bit for bit.
type inproc struct {
	noWire
	*site
	threeD bool
	pool   []session

	locate answerFunc
	next   int // pool cursor
	ids    int
}

func newInproc(seed int64, shape siteShape) (*inproc, error) {
	s, err := newSite(seed, shape, false, inProcess(shape.threeD))
	if err != nil {
		return nil, err
	}
	d := &inproc{site: s, threeD: shape.threeD}
	for _, group := range s.slots {
		d.pool = append(d.pool, group...)
	}
	return d, nil
}

func (d *inproc) newTracer() *tracer {
	fps := make(map[fingerprint]int)
	for i, s := range d.pool {
		addFingerprints(fps, s.obs, i)
	}
	return newTracer(d.threeD, false, "locate", fps, nil)
}

// start builds the locator from the registry file and answers the pool's
// next session, so successive cold starts answer different sessions.
func (d *inproc) start(tr *tracer) error {
	reg, err := loadRegistry(d.calibrated)
	if err != nil {
		return err
	}
	tags, err := reg.SpinningTags()
	if err != nil {
		return err
	}
	var cfg core.Config
	if tr != nil {
		cfg.Estimator = tr.estimator(core.GridEstimator{})
	}
	d.locate = locateWith(core.NewLocator(cfg), tags, d.threeD)
	if s := d.once(tr); s.failed > 0 || s.wrong > 0 {
		return fmt.Errorf("first answer failed or differs from the reference")
	}
	return nil
}

func (d *inproc) drive(until time.Time, tr *tracer) load {
	var l load
	for time.Now().Before(until) {
		l.samples = append(l.samples, d.once(tr))
	}
	return l
}

// once locates the pool's next session.
func (d *inproc) once(tr *tracer) sample {
	i := d.next % len(d.pool)
	d.next++
	d.ids++
	req := &request{id: d.ids}
	if tr != nil {
		tr.begin(req, i)
	}
	req.start = time.Now()
	ans, err := d.locate(d.pool[i].obs)
	end := time.Now()
	if tr != nil {
		tr.end(req, span{name: "locate", slot: i, start: req.start, end: end})
	}
	lat := end.Sub(req.start)
	s := sample{lat: lat, tail: lat, items: 1, end: end}
	switch {
	case err != nil:
		s.failed = 1
	case !reflect.DeepEqual(ans.value, d.pool[i].ref.value):
		s.wrong = 1
	}
	return s
}
