// Direction-recording rectangle sweeps: FastLSA's Base Case solver.
//
// The paper (Section 2.1) notes that a full-matrix solver only needs "two
// bits ... to encode the three path choices at each DPM entry". These
// sweeps compute the same DPM values as sweep_rectangle_{linear,affine}
// and publish the same bottom/right boundary lines, but instead of
// dropping the interior they record one direction byte per cell. The
// traceback then reads the bytes only — it never re-derives a predecessor
// from scores — and takes exactly the moves traceback_rectangle_{linear,
// affine} take on the stored score matrix, ties included.
//
// Byte layout: cells are stored one anti-diagonal after another, in the
// order the vector cores (dp/kernel_simd_lanes.inc) produce them, so a lane
// group writes its bytes with one contiguous store. Diagonal d = r + c
// holds its interior cells r = first_row(d) .. min(d - 1, rows), starting
// at byte offset(d): the count of interior cells on earlier diagonals,
// which has a closed form, so the layout needs no index.
//
// Byte encoding:
//   bits 0-1  kDirDiag / kDirUp / kDirLeft. Linear gaps: the cell's move,
//             preferring diagonal, then up, then left. Affine gaps: the
//             source of D (diagonal, Ix, Iy), in that preference order.
//   bit 2     affine only: Ix opens here (from D above), preferred over
//             extending the Ix run on a tie.
//   bit 3     affine only: Iy opens here (from D to the left), likewise.
#pragma once

#include <cstdint>
#include <span>

#include "dp/counters.hpp"
#include "dp/gotoh.hpp"
#include "dp/kernel.hpp"
#include "dp/path.hpp"
#include "scoring/scheme.hpp"
#include "sequence/sequence.hpp"

namespace flsa {

inline constexpr std::uint8_t kDirDiag = 0;
inline constexpr std::uint8_t kDirUp = 1;
inline constexpr std::uint8_t kDirLeft = 2;
inline constexpr std::uint8_t kDirSourceMask = 3;
inline constexpr std::uint8_t kDirIxOpen = 4;
inline constexpr std::uint8_t kDirIyOpen = 8;

/// Bytes past rows * cols that a direction buffer must hold: the vector
/// cores store whole lane groups, so the last diagonal may overshoot its
/// end by up to one group (8 lanes).
inline constexpr std::size_t kDirectionPad = 8;

/// Caller-owned direction storage of one rows x cols rectangle:
/// `bytes` holds direction_bytes(rows, cols) entries, which the sweeps
/// fill.
struct DirectionView {
  std::uint8_t* bytes = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  /// Row of diagonal d's first interior cell.
  std::size_t first_row(std::size_t d) const {
    return d > cols ? d - cols : 1;
  }
  /// Byte offset of diagonal d: the interior cells with r + c < d, by
  /// inclusion-exclusion over the triangle r, c >= 1 (t(x) cells lie on
  /// r + c <= x + 1), minus its parts beyond row `rows` and column `cols`.
  std::size_t offset(std::size_t d) const {
    const auto t = [](std::size_t x, std::size_t cut) {
      return x > cut ? (x - cut) * (x - cut + 1) / 2 : std::size_t{0};
    };
    return t(d, 2) - t(d, 2 + rows) - t(d, 2 + cols) + t(d, 2 + rows + cols);
  }
  /// Byte of interior cell (r, c), 1 <= r <= rows, 1 <= c <= cols.
  std::uint8_t& at(std::size_t r, std::size_t c) const {
    const std::size_t d = r + c;
    return bytes[offset(d) + (r - first_row(d))];
  }
};

inline std::size_t direction_bytes(std::size_t rows, std::size_t cols) {
  return rows * cols + kDirectionPad;
}

/// Bytes a direction sweep holds while solving a rectangle of at most
/// `cells` DPM cells whose longer side has at most `side` residues: one
/// byte per cell plus the score diagonals the vector cores sweep with
/// (three int32 rows for linear gaps, seven for affine).
std::size_t direction_sweep_bytes(std::size_t cells, std::size_t side,
                                  bool affine);

/// Scalar reference: a row loop with the boundary contract of
/// sweep_rectangle_linear (top/left in, out_bottom/out_right out,
/// out_right may be empty, out_bottom may alias top), recording one
/// direction byte per interior cell into `dirs` (dirs.rows == a.size(),
/// dirs.cols == b.size()). Adds a.size() * b.size() to
/// counters->cells_stored.
void sweep_directions_linear(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             std::span<Score> out_bottom,
                             std::span<Score> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters = nullptr);

/// Dispatching overload: kScalar runs the row loop, every other kernel
/// the int32 vector core (dp/kernel_simd.hpp). Bytes and lines agree
/// bit for bit across kernels.
void sweep_directions_linear(KernelKind kind, std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             std::span<Score> out_bottom,
                             std::span<Score> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters = nullptr);

/// Affine counterparts (contract of sweep_rectangle_affine).
void sweep_directions_affine(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             std::span<AffineCell> out_bottom,
                             std::span<AffineCell> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters = nullptr);

void sweep_directions_affine(KernelKind kind, std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             std::span<AffineCell> out_bottom,
                             std::span<AffineCell> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters = nullptr);

/// Walks the bytes back from (start_row, start_col) until the path reaches
/// the rectangle's top row or left column, appending moves to `path` (as
/// traceback_rectangle_linear does, with the same moves).
void traceback_directions_linear(const DirectionView& dirs,
                                 std::size_t start_row, std::size_t start_col,
                                 Path& path, DpCounters* counters = nullptr);

/// Affine walk in lane `state`; returns the lane the path is in when it
/// stops (as traceback_rectangle_affine does, with the same moves).
AffineState traceback_directions_affine(const DirectionView& dirs,
                                        std::size_t start_row,
                                        std::size_t start_col,
                                        AffineState state, Path& path,
                                        DpCounters* counters = nullptr);

}  // namespace flsa
