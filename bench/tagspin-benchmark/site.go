package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/testbed"
)

// session is one generated collection against a reader at a known position,
// with the answer the oracle holds every later answer to.
type session struct {
	truth geom.Vec3
	obs   core.Observations
	ref   answer
}

// answer is one locate's outcome as the oracle holds it: the value every
// later answer must equal bit for bit, and where it puts the reader (Z is 0
// for a 2D answer).
type answer struct {
	value any
	pos   geom.Vec3
}

// answerFunc locates one session as a workload's reference does.
type answerFunc func(obs core.Observations) (answer, error)

// referee builds a workload's answerFunc over the registry its site loads.
type referee func(reg *registry.Registry) (answerFunc, error)

// site is one seeded installation: several testbed.DefaultScenario
// deployments (two disks each) registered in one registry, as the JSON an
// operator would load, and a pool of sessions grouped by slot. A slot is one
// reader placement; in-process workloads draw one session per slot, wire
// workloads serve a slot's sessions from one replay reader.
type site struct {
	band         channel.Band
	duration     time.Duration
	calibrated   []byte // registry JSON with orientation calibrations
	uncalibrated []byte // the same tags without them
	slots        [][]session
}

// siteShape sizes a site.
type siteShape struct {
	deployments int     // independent two-disk deployments
	placements  int     // reader placements per deployment
	perSlot     int     // sessions collected at each placement
	threeD      bool    // placements above the disk plane
	rotations   float64 // session length in disk rotations
	calibrated  bool    // which registry the references use
}

// maxRedraws bounds how often a placement whose reference locate fails is
// drawn again.
const maxRedraws = 20

// siteSeed draws the deployments. The hardware of a site is fixed; the
// workload seed draws where readers stand and the noise of every session,
// so runs on different seeds exercise the same installation.
const siteSeed = 1

// newSite generates the site for seed. Each deployment runs the §III-B
// orientation prelude once at a bench placement, then draws its reader
// placements. ref computes each session's reference, on the observations as
// quantize delivers them when wire is set; a placement where any session
// fails to locate is drawn again, so the workload holds no failing input.
func newSite(seed int64, shape siteShape, wire bool, ref referee) (*site, error) {
	hw := rand.New(rand.NewSource(siteSeed))
	rng := rand.New(rand.NewSource(seed))
	s := &site{}
	var cal []core.SpinningTag
	var scenarios []*testbed.Scenario
	for range shape.deployments {
		sc := testbed.DefaultScenario(0, hw)
		sc.PlaceReader(geom.V3(0, 2.5, 0))
		tags, err := sc.CalibratedSpinningTags(hw)
		if err != nil {
			return nil, fmt.Errorf("orientation prelude: %w", err)
		}
		cal = append(cal, tags...)
		sc.Rotations = shape.rotations
		scenarios = append(scenarios, sc)
		s.band = sc.Band
		s.duration = time.Duration(shape.rotations * float64(sc.Installs[0].Disk.Period()))
	}
	var err error
	if s.calibrated, err = registryJSON(cal, true); err != nil {
		return nil, err
	}
	if s.uncalibrated, err = registryJSON(cal, false); err != nil {
		return nil, err
	}
	regJSON := s.uncalibrated
	if shape.calibrated {
		regJSON = s.calibrated
	}
	reg, err := loadRegistry(regJSON)
	if err != nil {
		return nil, err
	}
	locate, err := ref(reg)
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		for _, cell := range strata(rng, shape.placements) {
			group, err := drawSlot(rng, sc, shape, cell, func(obs core.Observations) (answer, error) {
				if wire {
					obs = quantize(obs, s.band)
				}
				return locate(obs)
			})
			if err != nil {
				return nil, err
			}
			s.slots = append(s.slots, group)
		}
	}
	return s, nil
}

// drawSlot draws a placement in cell and collects its sessions, drawing
// again while any session fails to locate.
func drawSlot(rng *rand.Rand, sc *testbed.Scenario, shape siteShape, cell stratum, locate answerFunc) ([]session, error) {
	var lastErr error
	for range maxRedraws {
		pos := cell.draw(rng, shape.placements, shape.threeD)
		sc.PlaceReader(pos)
		var group []session
		for range shape.perSlot {
			col, err := sc.Collect(rng)
			if err != nil {
				return nil, err
			}
			ref, err := locate(col.Obs)
			if err != nil {
				lastErr = err
				break
			}
			group = append(group, session{truth: pos, obs: col.Obs, ref: ref})
		}
		if len(group) == shape.perSlot {
			return group, nil
		}
	}
	return nil, fmt.Errorf("no placement located in %d draws: %w", maxRedraws, lastErr)
}

// stratum is one cell of a Latin hypercube over the placement region, by
// index into n equal slices of azimuth, distance and height.
type stratum struct{ az, d, z int }

// strata returns n cells of a Latin hypercube: every slice of each axis is
// used once. A deployment's placements then cover the region evenly, so a
// seed's mix of near and far, central and oblique readers — which sets how
// many orientation passes its locates take — barely moves between seeds.
func strata(rng *rand.Rand, n int) []stratum {
	d, z := rng.Perm(n), rng.Perm(n)
	out := make([]stratum, n)
	for i := range out {
		out[i] = stratum{i, d[i], z[i]}
	}
	return out
}

// draw places a reader uniformly in the cell, within the region
// internal/experiment samples: 20°–160° azimuth at 1.5–3.5 m in front of
// the disk pair, and in 3D a height of 0.3–1.1 m above the disk plane.
func (c stratum) draw(rng *rand.Rand, n int, threeD bool) geom.Vec3 {
	at := func(k int) float64 { return (float64(k) + rng.Float64()) / float64(n) }
	az := geom.Radians(20 + 140*at(c.az))
	d := 1.5 + 2.0*at(c.d)
	z := 0.0
	if threeD {
		z = 0.3 + 0.8*at(c.z)
	}
	return geom.V3(d*math.Cos(az), d*math.Sin(az), z)
}

// registryJSON renders tags as a registry file, with or without their
// orientation calibrations.
func registryJSON(tags []core.SpinningTag, calibrated bool) ([]byte, error) {
	entries := make([]registry.Entry, len(tags))
	for i, t := range tags {
		if !calibrated {
			t.Orientation = nil
		}
		entries[i] = registry.EntryFromSpinningTag(t)
	}
	return json.Marshal(entries)
}

// loadRegistry parses and validates a registry file's contents.
func loadRegistry(data []byte) (*registry.Registry, error) {
	var entries []registry.Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("registry load: %w", err)
	}
	reg := registry.New()
	for _, e := range entries {
		if err := reg.Add(e); err != nil {
			return nil, fmt.Errorf("registry load: %w", err)
		}
	}
	return reg, nil
}

// errors returns every reference answer's distance to ground truth, in
// meters. 2D placements lie in the disk plane, where 2D answers put them.
func (s *site) errors() []float64 {
	var out []float64
	for _, group := range s.slots {
		for _, sess := range group {
			out = append(out, sess.ref.pos.DistanceTo(sess.truth))
		}
	}
	return out
}

// inProcess is the referee of the in-process workloads: a default locator's
// core result, in 2D or 3D.
func inProcess(threeD bool) referee {
	return func(reg *registry.Registry) (answerFunc, error) {
		tags, err := reg.SpinningTags()
		if err != nil {
			return nil, err
		}
		return locateWith(core.NewLocator(core.Config{}), tags, threeD), nil
	}
}

// locateWith answers sessions in process with loc. The answer is the core
// result itself, which in-process workloads hold every later locate to.
func locateWith(loc *core.Locator, tags []core.SpinningTag, threeD bool) answerFunc {
	return func(obs core.Observations) (answer, error) {
		ctx := context.Background()
		if threeD {
			res, err := loc.Locate3DContext(ctx, tags, obs)
			return answer{res, res.Position}, err
		}
		res, err := loc.Locate2DContext(ctx, tags, obs)
		return answer{res, geom.V3(res.Position.X, res.Position.Y, 0)}, err
	}
}
