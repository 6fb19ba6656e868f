#!/bin/sh
# check-bce.sh — bounds-check-elimination spot check for the spectrum hot
# loops (make vet-strict).
#
# The all-cells kernels in internal/spectrum/allcells.go (synthesizeComplex,
# synthRowR, the Profile*Synth drivers, the 3D coarse-argmax driver
# harmonicArgmax3D with its shortlistRow/evalGridCell helpers), the
# harmonic kernels in internal/spectrum/harmonic.go (besselJArray, foldTerm,
# foldTermsHarmonic, synthesize, the foldUnitSums/scaleUnitSums pair that
# refine3D folds with — hot on the full term set once refinement
# synthesizes) are written with explicit reslicing so the compiler can
# prove every per-element index in range and drop the bounds checks; a
# refactor that breaks that proof silently re-inserts a check per element
# per iteration in the hottest loops of the package. This script rebuilds
# the package with the compiler's check_bce diagnostic and fails if any
# per-element IsInBounds check survives in either file.
#
# IsSliceInBounds hits are allowed: those are the one-time reslices at
# function entry (s[:n] on pool-backed buffers whose capacity the compiler
# cannot know) — they run once per call, not once per element, and they are
# exactly the length facts that make the inner loops provable. Gating them
# would force removing the reslices that the real elimination depends on.
#
# Scope is deliberately just allcells.go and harmonic.go: other
# files keep bounds checks in cold paths (setup, error handling) by design,
# and gating them would turn the check into noise.
set -eu

cd "$(dirname "$0")/.."

out=$(go build -gcflags='github.com/tagspin/tagspin/internal/spectrum=-d=ssa/check_bce/debug=1' ./internal/spectrum/ 2>&1 || true)

hits=$(printf '%s\n' "$out" | grep -E '(allcells|harmonic)\.go.*IsInBounds' || true)
if [ -n "$hits" ]; then
    echo "check-bce: per-element bounds checks found in internal/spectrum hot loops (allcells.go/harmonic.go):" >&2
    printf '%s\n' "$hits" >&2
    exit 1
fi
echo "check-bce: internal/spectrum allcells.go/harmonic.go hot loops are bounds-check free"
