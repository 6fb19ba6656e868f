// Package registry is the localization server's store of spinning-tag
// installations: for each infrastructure tag, its EPC, the surveyed disk
// geometry (center, radius, angular velocity, phase reference), and the
// orientation calibration fitted at installation time (§III-B). The
// registry persists as JSON so deployments survive restarts.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/tagspin/tagspin/internal/core"
	"github.com/tagspin/tagspin/internal/geom"
	"github.com/tagspin/tagspin/internal/phase"
	"github.com/tagspin/tagspin/internal/spindisk"
	"github.com/tagspin/tagspin/internal/tags"
)

// ErrNotFound reports a lookup of an unregistered EPC.
var ErrNotFound = errors.New("registry: tag not found")

// ErrDuplicate reports registration of an already-present EPC.
var ErrDuplicate = errors.New("registry: tag already registered")

// Entry is one registered spinning tag in its wire/persisted form.
type Entry struct {
	// EPC is the tag identity, hex-encoded in JSON.
	EPC string `json:"epc"`
	// Center is the disk center in meters.
	Center [3]float64 `json:"centerM"`
	// RadiusM is the disk radius.
	RadiusM float64 `json:"radiusM"`
	// OmegaRadPerSec is the angular velocity.
	OmegaRadPerSec float64 `json:"omegaRadPerSec"`
	// Theta0Rad is the tag's disk angle at the session time origin.
	Theta0Rad float64 `json:"theta0Rad"`
	// Orientation is the fitted phase-orientation calibration, if any.
	Orientation *phase.OrientationCalibration `json:"orientation,omitempty"`
}

// Validate checks the entry. Every geometry field must be finite: JSON
// cannot carry NaN or ±Inf, but a Go caller can, and one non-finite field
// turns every bearing computed from the disk into NaN.
func (e Entry) Validate() error {
	if _, err := tags.ParseEPC(e.EPC); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for _, v := range [...]float64{e.Center[0], e.Center[1], e.Center[2], e.RadiusM, e.OmegaRadPerSec, e.Theta0Rad} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("registry: entry %s: non-finite geometry %v", e.EPC, v)
		}
	}
	disk := e.disk()
	if err := disk.Validate(); err != nil {
		return fmt.Errorf("registry: entry %s: %w", e.EPC, err)
	}
	if disk.Radius == 0 {
		return fmt.Errorf("registry: entry %s: zero radius", e.EPC)
	}
	return nil
}

// disk converts the entry's geometry fields.
func (e Entry) disk() spindisk.Disk {
	return spindisk.Disk{
		Center: geom.V3(e.Center[0], e.Center[1], e.Center[2]),
		Radius: e.RadiusM,
		Omega:  e.OmegaRadPerSec,
		Theta0: e.Theta0Rad,
	}
}

// SpinningTag converts the entry to the pipeline's representation.
func (e Entry) SpinningTag() (core.SpinningTag, error) {
	epc, err := tags.ParseEPC(e.EPC)
	if err != nil {
		return core.SpinningTag{}, err
	}
	return core.SpinningTag{EPC: epc, Disk: e.disk(), Orientation: e.Orientation}, nil
}

// EntryFromSpinningTag converts a pipeline representation to an entry.
func EntryFromSpinningTag(t core.SpinningTag) Entry {
	return Entry{
		EPC:            t.EPC.String(),
		Center:         [3]float64{t.Disk.Center.X, t.Disk.Center.Y, t.Disk.Center.Z},
		RadiusM:        t.Disk.Radius,
		OmegaRadPerSec: t.Disk.Omega,
		Theta0Rad:      t.Disk.Theta0,
		Orientation:    t.Orientation,
	}
}

// key returns the canonical form of a hex EPC, lowercase as tags.EPC.String
// writes it, so one tag has one key however its hex is cased. A string that
// is no EPC is its own key.
func key(epc string) string {
	if e, err := tags.ParseEPC(epc); err == nil {
		return e.String()
	}
	return epc
}

// Registry is a concurrency-safe spinning-tag store, keyed by canonical EPC
// (key); each entry keeps its EPC as it was registered.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]Entry)}
}

// Add registers an entry. Duplicate EPCs are rejected, in any hex case.
func (r *Registry) Add(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	k := key(e.EPC)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[k]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, e.EPC)
	}
	r.entries[k] = e
	return nil
}

// Update replaces an existing entry (e.g. after re-running the orientation
// prelude).
func (r *Registry) Update(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	k := key(e.EPC)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[k]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, e.EPC)
	}
	r.entries[k] = e
	return nil
}

// Remove deletes an entry.
func (r *Registry) Remove(epc string) error {
	k := key(epc)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[k]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, epc)
	}
	delete(r.entries, k)
	return nil
}

// Get looks up one entry by hex EPC.
func (r *Registry) Get(epc string) (Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[key(epc)]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, epc)
	}
	return e, nil
}

// List returns all entries sorted by EPC.
func (r *Registry) List() []Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EPC < out[j].EPC })
	return out
}

// Len returns the number of registered tags.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// SpinningTags converts every entry for the pipeline.
func (r *Registry) SpinningTags() ([]core.SpinningTag, error) {
	entries := r.List()
	out := make([]core.SpinningTag, 0, len(entries))
	for _, e := range entries {
		t, err := e.SpinningTag()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Save writes the registry to path as JSON, atomically (write + rename).
// The temporary file gets a unique name in the target directory, so
// concurrent Saves to the same path cannot corrupt each other's rename, and
// it is removed on any failure rather than leaked.
func (r *Registry) Save(path string) (err error) {
	data, err := json.MarshalIndent(r.List(), "", "  ")
	if err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close() //nolint:errcheck // already failing
		return fmt.Errorf("registry save: %w", err)
	}
	if err = tmp.Chmod(0o644); err != nil {
		tmp.Close() //nolint:errcheck // already failing
		return fmt.Errorf("registry save: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	return nil
}

// Load reads a registry from a JSON file produced by Save.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry load: %w", err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("registry load: %w", err)
	}
	r := New()
	for _, e := range entries {
		if err := r.Add(e); err != nil {
			return nil, fmt.Errorf("registry load: %w", err)
		}
	}
	return r, nil
}
