// Package testbed assembles the simulated world the paper's evaluation ran
// in: an office-room radio environment, spinning-tag installations, and a
// target reader antenna. It drives the channel simulator through collection
// sessions and produces exactly what the real system would hand the
// localization server — per-EPC snapshot series — plus the §III-B
// orientation-calibration prelude.
package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tagspin/tagspin/internal/antenna"
	"github.com/tagspin/tagspin/internal/channel"
	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/gen2"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
)

// Install is one spinning-tag installation: a physical tag on a disk.
type Install struct {
	// Tag is the physical tag instance.
	Tag *tags.Tag
	// Disk is the nominal (registry) disk geometry.
	Disk spindisk.Disk
}

// Scenario describes a complete simulated deployment.
type Scenario struct {
	// Channel is the radio environment.
	Channel channel.Config
	// Band is the frequency plan.
	Band channel.Band
	// HopChannel is the fixed hop channel index; negative means the
	// reader hops randomly across the band each read.
	HopChannel int
	// Antenna is the target reader antenna to be localized.
	Antenna antenna.Antenna
	// Installs are the spinning-tag installations.
	Installs []Install
	// ReadRateHz is the nominal interrogation attempt rate per tag.
	// Zero means 80 (a Gen2 reader sees a lone tag a few dozen times per
	// second per antenna).
	ReadRateHz float64
	// Rotations is how many disk rotations one session records; zero
	// means 2.
	Rotations float64
	// Actuator sets motor/survey imperfections shared by all disks.
	Actuator spindisk.ActuatorConfig
	// Gen2, when non-nil, schedules reads through the EPC Gen2 inventory
	// MAC (slotted ALOHA + adaptive Q) instead of the uniform-rate
	// default. ReadRateHz is ignored in that mode; the MAC's timing
	// produces the rate.
	Gen2 *gen2.Config
}

// readRate returns the effective attempt rate.
func (s *Scenario) readRate() float64 {
	if s.ReadRateHz <= 0 {
		return 80
	}
	return s.ReadRateHz
}

// rotations returns the effective session length in rotations.
func (s *Scenario) rotations() float64 {
	if s.Rotations <= 0 {
		return 2
	}
	return s.Rotations
}

// DefaultScenario builds the paper's default 2D/3D layout: two disks with
// 10 cm radius and ω = π rad/s centered at (±25 cm, 0, z), default-model
// tags, free-space channel with σ = 0.1 rad phase noise, one 8 dBi antenna
// (positioned later), fixed mid-band channel.
func DefaultScenario(diskZ float64, rng *rand.Rand) *Scenario {
	disks := []geom.Vec3{geom.V3(-0.25, 0, diskZ), geom.V3(0.25, 0, diskZ)}
	installs := make([]Install, 0, len(disks))
	for i, c := range disks {
		installs = append(installs, Install{
			Tag: tags.New(tags.DefaultModel(), rng),
			Disk: spindisk.Disk{
				Center: c,
				Radius: 0.10,
				Omega:  math.Pi,
				Theta0: float64(i) * math.Pi / 3, // stagger starting angles
			},
		})
	}
	ants := antenna.YeonSet(1, rng)
	return &Scenario{
		Channel:    channel.DefaultConfig(),
		Band:       channel.ChinaBand(),
		HopChannel: channel.ChinaBand().MidChannel(),
		Antenna:    ants[0],
		Installs:   installs,
	}
}

// PlaceReader positions the target antenna and points its boresight at the
// centroid of the disks.
func (s *Scenario) PlaceReader(pos geom.Vec3) {
	s.Antenna.Position = pos
	var centroid geom.Vec3
	for _, in := range s.Installs {
		centroid = centroid.Add(in.Disk.Center)
	}
	if n := len(s.Installs); n > 0 {
		centroid = centroid.Scale(1 / float64(n))
	}
	s.Antenna.Boresight = centroid.Sub(pos).Azimuth()
}

// Collection is the output of one session: what the localization server
// receives.
type Collection struct {
	// Obs holds the per-EPC snapshot series.
	Obs core.Observations
	// Registered mirrors the registry contents for the session's tags,
	// without orientation calibrations (attach them separately).
	Registered []core.SpinningTag
}

// Collect runs one collection session: every installed tag spins for the
// configured number of rotations while the reader interrogates it at the
// nominal rate; successful reads become snapshots.
func (s *Scenario) Collect(rng *rand.Rand) (Collection, error) {
	if len(s.Installs) == 0 {
		return Collection{}, fmt.Errorf("testbed: no installs")
	}
	sim, err := channel.NewSimulator(s.Channel, rng)
	if err != nil {
		return Collection{}, err
	}
	col := Collection{Obs: make(core.Observations, len(s.Installs))}
	if s.Gen2 != nil {
		if err := s.collectGen2(sim, &col, rng); err != nil {
			return Collection{}, err
		}
	} else {
		for _, in := range s.Installs {
			snaps, err := s.collectOne(sim, in, rng)
			if err != nil {
				return Collection{}, err
			}
			col.Obs[in.Tag.EPC] = snaps
		}
	}
	for _, in := range s.Installs {
		col.Registered = append(col.Registered, core.SpinningTag{EPC: in.Tag.EPC, Disk: in.Disk})
	}
	return col, nil
}

// collectGen2 runs one session with read timing produced by the Gen2 MAC:
// slot contention couples the tags, so the session is simulated jointly.
func (s *Scenario) collectGen2(sim *channel.Simulator, col *Collection, rng *rand.Rand) error {
	mac, err := gen2.New(*s.Gen2, rng)
	if err != nil {
		return err
	}
	acts := make([]*spindisk.Actuator, len(s.Installs))
	var period time.Duration
	for i, in := range s.Installs {
		act, err := spindisk.NewActuator(in.Disk, s.Actuator, rng)
		if err != nil {
			return err
		}
		acts[i] = act
		if p := in.Disk.Period(); p > period {
			period = p
		}
	}
	duration := time.Duration(s.rotations() * float64(period))
	// Participation = powered at that instant, on the session's carrier.
	// Frequency per attempt is drawn when the read materializes; for the
	// participation check the mid-band carrier is representative.
	midFreq, err := s.Band.FrequencyHz(s.Band.MidChannel())
	if err != nil {
		return err
	}
	participate := func(tag int, at time.Duration) bool {
		in := s.Installs[tag]
		a := in.Disk.Angle(at)
		return sim.Powered(channel.Query{
			Tag:           in.Tag,
			TagPos:        acts[tag].TruePosition(a),
			TagPlaneAngle: in.Disk.TagPlaneAngle(a),
			Antenna:       s.Antenna,
			FrequencyHz:   midFreq,
		})
	}
	reads, err := mac.Run(duration, len(s.Installs), participate)
	if err != nil {
		return err
	}
	for _, r := range reads {
		in := s.Installs[r.Tag]
		freq, err := s.frequency(rng)
		if err != nil {
			return err
		}
		trueAngle := acts[r.Tag].TrueAngle(r.At)
		obs, ok := sim.ObserveSingulated(channel.Query{
			Tag:           in.Tag,
			TagPos:        acts[r.Tag].TruePosition(trueAngle),
			TagPlaneAngle: in.Disk.TagPlaneAngle(trueAngle),
			Antenna:       s.Antenna,
			FrequencyHz:   freq,
		})
		if !ok {
			continue
		}
		col.Obs[in.Tag.EPC] = append(col.Obs[in.Tag.EPC], phase.Snapshot{
			Time:        r.At,
			Phase:       obs.PhaseRad,
			RSSIdBm:     obs.RSSIdBm,
			FrequencyHz: freq,
			AntennaID:   s.Antenna.ID,
		})
	}
	return nil
}

// frequency picks the carrier for one read attempt.
func (s *Scenario) frequency(rng *rand.Rand) (float64, error) {
	ch := s.HopChannel
	if ch < 0 {
		ch = rng.Intn(s.Band.Channels)
	}
	return s.Band.FrequencyHz(ch)
}

// collectOne runs the session for a single install.
func (s *Scenario) collectOne(sim *channel.Simulator, in Install, rng *rand.Rand) ([]phase.Snapshot, error) {
	act, err := spindisk.NewActuator(in.Disk, s.Actuator, rng)
	if err != nil {
		return nil, err
	}
	duration := time.Duration(s.rotations() * float64(in.Disk.Period()))
	step := time.Duration(float64(time.Second) / s.readRate())
	var snaps []phase.Snapshot
	for t := time.Duration(0); t < duration; t += step {
		freq, err := s.frequency(rng)
		if err != nil {
			return nil, err
		}
		trueAngle := act.TrueAngle(t)
		obs, ok := sim.Observe(channel.Query{
			Tag:           in.Tag,
			TagPos:        act.TruePosition(trueAngle),
			TagPlaneAngle: in.Disk.TagPlaneAngle(trueAngle),
			Antenna:       s.Antenna,
			FrequencyHz:   freq,
		})
		if !ok {
			continue
		}
		snaps = append(snaps, phase.Snapshot{
			Time:        t,
			Phase:       obs.PhaseRad,
			RSSIdBm:     obs.RSSIdBm,
			FrequencyHz: freq,
			AntennaID:   s.Antenna.ID,
		})
	}
	return snaps, nil
}

// CalibrateOrientation runs the §III-B prelude for one install: the tag is
// re-mounted at the disk center, spun for the configured rotations while a
// bench antenna at a *known* azimuth interrogates it, and the
// phase-vs-orientation function is fitted from the samples.
func (s *Scenario) CalibrateOrientation(in Install, rng *rand.Rand) (*phase.OrientationCalibration, error) {
	sim, err := channel.NewSimulator(s.Channel, rng)
	if err != nil {
		return nil, err
	}
	center := in.Disk
	center.Mount = spindisk.MountCenter
	act, err := spindisk.NewActuator(center, s.Actuator, rng)
	if err != nil {
		return nil, err
	}
	readerAz := s.Antenna.Position.Sub(center.Center).Azimuth()
	duration := time.Duration(s.rotations() * float64(center.Period()))
	step := time.Duration(float64(time.Second) / s.readRate())
	var samples []phase.OrientationSample
	for t := time.Duration(0); t < duration; t += step {
		freq, err := s.frequency(rng)
		if err != nil {
			return nil, err
		}
		trueAngle := act.TrueAngle(t)
		obs, ok := sim.Observe(channel.Query{
			Tag:           in.Tag,
			TagPos:        act.TruePosition(trueAngle),
			TagPlaneAngle: center.TagPlaneAngle(trueAngle),
			Antenna:       s.Antenna,
			FrequencyHz:   freq,
		})
		if !ok {
			continue
		}
		samples = append(samples, phase.OrientationSample{
			Rho:   center.OrientationTo(center.Angle(t), readerAz),
			Phase: obs.PhaseRad,
		})
	}
	cal, err := phase.FitOrientation(samples, phase.DefaultOrientationOrder)
	if err != nil {
		return nil, fmt.Errorf("calibrate orientation: %w", err)
	}
	return &cal, nil
}

// CalibratedSpinningTags runs the orientation prelude for every install and
// returns registry entries with calibrations attached.
func (s *Scenario) CalibratedSpinningTags(rng *rand.Rand) ([]core.SpinningTag, error) {
	out := make([]core.SpinningTag, 0, len(s.Installs))
	for _, in := range s.Installs {
		cal, err := s.CalibrateOrientation(in, rng)
		if err != nil {
			return nil, fmt.Errorf("tag %s: %w", in.Tag.EPC, err)
		}
		out = append(out, core.SpinningTag{EPC: in.Tag.EPC, Disk: in.Disk, Orientation: cal})
	}
	return out, nil
}
