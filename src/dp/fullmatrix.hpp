// Full-matrix (FM) dynamic-programming alignment: the Needleman-Wunsch
// baseline that stores the complete DPM, plus the boundary-aware rectangle
// fill and traceback that Hirschberg's and the semiglobal base cases use
// and that the direction-byte Base Case of FastLSA (dp/direction.hpp) is
// tested against.
#pragma once

#include <span>

#include "dp/alignment.hpp"
#include "dp/counters.hpp"
#include "dp/matrix.hpp"
#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

/// Fills `dpm` (resized to (a.size()+1) x (b.size()+1)) with the linear-gap
/// DPM of the rectangle whose boundary caches are `top` and `left`
/// (layout as in sweep_rectangle_linear).
void fill_full_matrix_linear(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             Matrix2D<Score>& dpm,
                             DpCounters* counters = nullptr);

/// Traces an optimal path backwards through a filled rectangle DPM,
/// starting at (start_row, start_col), stopping when the path reaches the
/// rectangle's top row or left column (the paper's Base Case behaviour:
/// "an optimal path is found to extend from the bottom-right corner entry
/// to the top boundary entry").
///
/// Tie-breaking is deterministic: diagonal, then up, then left, so every
/// algorithm in the library reconstructs the same optimal path.
/// Moves are appended to `path` (whose front must be at the start cell in
/// *global* coordinates; `row_offset`/`col_offset` translate local rectangle
/// coordinates to global DPM coordinates).
void traceback_rectangle_linear(std::span<const Residue> a,
                                std::span<const Residue> b,
                                const ScoringScheme& scheme,
                                const Matrix2D<Score>& dpm,
                                std::size_t start_row, std::size_t start_col,
                                Path& path, DpCounters* counters = nullptr);

/// Complete Needleman-Wunsch global alignment storing the whole DPM.
/// This is the paper's FM baseline. Works for linear schemes only; the
/// affine FM baseline lives in gotoh.hpp.
Alignment full_matrix_align(const Sequence& a, const Sequence& b,
                            const ScoringScheme& scheme,
                            DpCounters* counters = nullptr);

/// Score-only FM run (fills the matrix, returns the corner value).
Score full_matrix_score(const Sequence& a, const Sequence& b,
                        const ScoringScheme& scheme,
                        DpCounters* counters = nullptr);

/// Extends a path that has reached the DPM's top row or left column the
/// rest of the way to the origin (leading gaps), completing the alignment.
void extend_path_to_origin(Path& path);

}  // namespace flsa
