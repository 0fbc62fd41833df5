// Deterministic fault injection for the alignment service.
//
// A FaultPlan describes, as independent per-event probabilities, the ways
// a real deployment misbehaves: connections dropped mid-stream, stalled
// reads and writes, frames truncated by a peer dying mid-write, corrupted
// payload bytes, and admission rejections under synthetic overload. The
// plan is seeded, so a CI run replays the same fault schedule every time,
// and it is runtime-configurable (`flsa_serve --fault-plan`), so the same
// binary that serves production traffic can be flipped into a chaos
// target.
//
// The server consults one FaultInjector (thread-safe, one seeded RNG) at
// three sites:
//   * admission  — before the queue: inject_reject() forces an OVERLOADED
//                  answer, exercising the client's retry/backoff path
//   * read       — before each frame read: inject_read() may stall the
//                  reader or kill the connection
//   * write      — around each response write: inject_write() may stall,
//                  kill the connection, truncate the frame (the classic
//                  "server died mid-write" the client must surface as a
//                  typed TransportError), or corrupt the payload
//
// Corruption damages the payload's *version byte*, never the length
// prefix: framing stays intact (no client hang waiting for phantom
// bytes) and the damage is always detectable, so the chaos contract —
// every request terminates in a bit-identical correct score or a typed
// error — stays provable. Undetectably-wrong bytes from a peer are not a
// transport fault, they are a byzantine peer, which no client can catch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace flsa {
namespace service {

/// Seeded, per-site fault probabilities. All probabilities live in
/// [0, 1]; the default plan injects nothing.
struct FaultPlan {
  std::uint64_t seed = 1;         ///< RNG seed; same seed, same schedule
  double reject = 0.0;            ///< admission: forced OVERLOADED answer
  double drop = 0.0;              ///< read/write: kill the connection
  double delay = 0.0;             ///< read/write: stall for delay_ms
  std::uint32_t delay_ms = 10;    ///< stall duration for delay faults
  double truncate = 0.0;          ///< write: send a partial frame, kill
  double corrupt = 0.0;           ///< write: damage the version byte

  /// True when any probability is nonzero (the server skips every fault
  /// check otherwise — an inactive plan costs nothing on the hot path).
  bool enabled() const {
    return reject > 0.0 || drop > 0.0 || delay > 0.0 || truncate > 0.0 ||
           corrupt > 0.0;
  }
};

/// Parses the --fault-plan grammar: comma-separated `key=value` pairs.
///   seed=N            RNG seed (default 1)
///   reject=P          admission rejection probability
///   drop=P            connection-drop probability (read and write sites)
///   delay=P or P:MS   stall probability, optional stall milliseconds
///   truncate=P        partial-frame-write probability
///   corrupt=P         payload-corruption probability
/// Example: "seed=42,reject=0.2,drop=0.05,delay=0.1:25,truncate=0.05".
/// Throws std::invalid_argument on unknown keys, malformed numbers,
/// probabilities outside [0, 1], or delays above 60000 ms.
FaultPlan parse_fault_plan(std::string_view spec);

/// Canonical round-trippable rendering of a plan (parse(to_string(p))
/// yields p); "off" for an inactive plan.
std::string to_string(const FaultPlan& plan);

/// What inject_write() decided for one response write.
enum class WriteFault : std::uint8_t {
  kNone,      ///< write the frame normally
  kDrop,      ///< kill the connection instead of writing
  kTruncate,  ///< send a strict prefix of the frame, then kill
  kCorrupt,   ///< damage the payload, send the full frame
};

/// What inject_read() decided for one frame read.
enum class ReadFault : std::uint8_t {
  kNone,  ///< read normally
  kDrop,  ///< kill the connection instead of reading
};

/// Thread-safe fault decision source. One injector per server; every
/// decision consumes draws from a single seeded generator, and every
/// injected fault ticks a `service.fault.*` counter in the obs registry
/// so chaos runs can be audited from STATS.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  bool active() const { return plan_.enabled(); }

  /// Admission site. True: answer OVERLOADED without queueing.
  bool inject_reject();

  /// Read site. Stalls inline on a delay fault (a stalled reader is the
  /// fault), then reports whether to kill the connection.
  ReadFault inject_read();

  /// Write site. Stalls inline on a delay fault, then reports the action
  /// for the frame about to be written.
  WriteFault inject_write();

  /// Ends every stall in progress and makes later ones return at once,
  /// until resume(). AlignmentServer::stop() calls it first, so a drain
  /// does not wait out the injected delays of every pending read and
  /// write in turn.
  void interrupt();

  /// Re-arms delay faults after interrupt() (AlignmentServer::start()).
  void resume();

  /// For WriteFault::kTruncate: how many of `frame_size` on-the-wire
  /// bytes to actually send — always a strict prefix (< frame_size), so
  /// the peer observes EOF mid-frame, never a valid short frame.
  std::size_t truncate_point(std::size_t frame_size);

  /// For WriteFault::kCorrupt: damages the payload in place (version
  /// byte XOR 0xA5 — guaranteed to decode as a typed error, see header
  /// comment). No-op on an empty payload.
  static void corrupt(std::string& payload);

 private:
  /// Uniform draw in [0, 1) from the seeded generator (locked).
  double uniform();
  std::uint64_t next_u64();
  /// Waits plan_.delay_ms, or less once interrupt() is called.
  void stall();

  FaultPlan plan_;
  std::mutex mutex_;
  std::uint64_t state_;
  std::mutex stall_mutex_;
  std::condition_variable stall_cv_;
  bool interrupted_ = false;  ///< guarded by stall_mutex_
};

}  // namespace service
}  // namespace flsa
