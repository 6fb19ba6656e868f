// Package trace records and replays collection sessions. A trace is a
// self-contained JSON-lines file: a header carrying the registered
// spinning-tag entries and optional ground truth, followed by one line per
// tag read. Traces make experiments replayable and let the pipeline run on
// captured data without a reader.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/registry"
	"github.com/tagspin/tagspin/internal/tags"
)

// ErrEmptyTrace reports a trace without a header line.
var ErrEmptyTrace = errors.New("trace: empty input")

// ErrTimeRange reports a record whose timeUs does not fit a time.Duration:
// its magnitude exceeds maxTimeMicros.
var ErrTimeRange = errors.New("trace: timestamp out of range")

// maxTimeMicros is the largest |timeUs| a time.Duration holds, about 292
// years.
const maxTimeMicros = math.MaxInt64 / int64(time.Microsecond)

// Header is the first line of a trace file.
type Header struct {
	// Version identifies the format; only 1 exists.
	Version int `json:"version"`
	// Description is a free-form label.
	Description string `json:"description,omitempty"`
	// Registered holds the spinning-tag registry entries of the session.
	Registered []registry.Entry `json:"registered"`
	// TruePosition optionally records ground truth for evaluation.
	TruePosition *[3]float64 `json:"truePositionM,omitempty"`
}

// Record is one tag read.
type Record struct {
	// EPC is the hex tag identity.
	EPC string `json:"epc"`
	// TimeMicros is the reader timestamp.
	TimeMicros int64 `json:"timeUs"`
	// PhaseRad is the wrapped phase.
	PhaseRad float64 `json:"phaseRad"`
	// RSSIdBm is the received strength.
	RSSIdBm float64 `json:"rssiDBm"`
	// FrequencyHz is the carrier.
	FrequencyHz float64 `json:"freqHz"`
	// AntennaID is the reader port.
	AntennaID int `json:"antenna"`
}

// Trace is a parsed session.
type Trace struct {
	Header  Header
	Records []Record
}

// New builds a trace from pipeline data, ordering records by time then EPC
// so output is deterministic.
func New(description string, registered []core.SpinningTag, obs core.Observations, truth *[3]float64) *Trace {
	t := &Trace{Header: Header{
		Version:      1,
		Description:  description,
		TruePosition: truth,
	}}
	for _, st := range registered {
		t.Header.Registered = append(t.Header.Registered, registry.EntryFromSpinningTag(st))
	}
	for epc, snaps := range obs {
		for _, s := range snaps {
			t.Records = append(t.Records, Record{
				EPC:         epc.String(),
				TimeMicros:  int64(s.Time / time.Microsecond),
				PhaseRad:    s.Phase,
				RSSIdBm:     s.RSSIdBm,
				FrequencyHz: s.FrequencyHz,
				AntennaID:   s.AntennaID,
			})
		}
	}
	sort.Slice(t.Records, func(i, j int) bool {
		if t.Records[i].TimeMicros != t.Records[j].TimeMicros {
			return t.Records[i].TimeMicros < t.Records[j].TimeMicros
		}
		return t.Records[i].EPC < t.Records[j].EPC
	})
	return t
}

// Observations reconstructs the pipeline input. A record whose timestamp
// does not fit a time.Duration fails with ErrTimeRange.
func (t *Trace) Observations() (core.Observations, error) {
	obs := make(core.Observations)
	for i, r := range t.Records {
		epc, err := tags.ParseEPC(r.EPC)
		if err != nil {
			return nil, fmt.Errorf("trace record %d: %w", i, err)
		}
		if r.TimeMicros > maxTimeMicros || r.TimeMicros < -maxTimeMicros {
			return nil, fmt.Errorf("trace record %d: timeUs %d: %w", i, r.TimeMicros, ErrTimeRange)
		}
		obs[epc] = append(obs[epc], phase.Snapshot{
			Time:        time.Duration(r.TimeMicros) * time.Microsecond,
			Phase:       r.PhaseRad,
			RSSIdBm:     r.RSSIdBm,
			FrequencyHz: r.FrequencyHz,
			AntennaID:   r.AntennaID,
		})
	}
	return obs, nil
}

// SpinningTags reconstructs the registry entries.
func (t *Trace) SpinningTags() ([]core.SpinningTag, error) {
	out := make([]core.SpinningTag, 0, len(t.Header.Registered))
	for _, e := range t.Header.Registered {
		st, err := e.SpinningTag()
		if err != nil {
			return nil, fmt.Errorf("trace header: %w", err)
		}
		out = append(out, st)
	}
	return out, nil
}

// Write streams the trace as JSON lines.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("trace header: %w", err)
	}
	for i, r := range t.Records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a trace from JSON lines.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace read: %w", err)
		}
		return nil, ErrEmptyTrace
	}
	var t Trace
	if err := json.Unmarshal(sc.Bytes(), &t.Header); err != nil {
		return nil, fmt.Errorf("trace header: %w", err)
	}
	if t.Header.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", t.Header.Version)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace read: %w", err)
	}
	return &t, nil
}

// Save writes the trace to a file.
func Save(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace save: %w", err)
	}
	if err := Write(f, t); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace save: %w", err)
	}
	return nil
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace load: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only
	return Read(f)
}
