#include "campaign/runner.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"
#include "units/number.hpp"

namespace coeff::campaign {

namespace {

using Clock = std::chrono::steady_clock;

void log_line(const CampaignOptions& options, const std::string& line) {
  if (options.log) options.log(line);
}

/// What a shard's checkpoint says has happened so far.
struct ShardProgress {
  std::set<std::int64_t> done;
  std::set<std::int64_t> quarantined;
  std::map<std::int64_t, int> intents;  ///< cell -> attempts recorded
  std::int64_t inflight_cell = -1;      ///< last intent without done/Q
  int inflight_attempt = 0;
  bool degraded = false;
  /// Records or rows past the last commit (recover_shard only).
  bool uncommitted = false;
  bool ok = false;
  std::string error;
};

/// Folds the records. With `tail_rows` (the cells whose rows survived
/// past the last commit), a done record past the last commit is a hint
/// that counts only if its row is there.
ShardProgress digest_checkpoint(
    const CheckpointLoad& load,
    const std::set<std::int64_t>* tail_rows = nullptr) {
  ShardProgress progress;
  progress.ok = load.ok;
  progress.error = load.error;
  if (!load.ok) return progress;
  for (std::size_t i = 0; i < load.records.size(); ++i) {
    const CheckpointRecord& record = load.records[i];
    switch (record.kind) {
      case CheckpointRecordKind::kIntent: {
        int& attempts = progress.intents[record.cell];
        attempts = std::max(attempts, record.attempt);
        progress.inflight_cell = record.cell;
        progress.inflight_attempt = attempts;
        break;
      }
      case CheckpointRecordKind::kDone:
        if (tail_rows != nullptr && i >= load.committed_records &&
            tail_rows->count(record.cell) == 0) {
          // A machine crash lost the row of an attempt that succeeded:
          // give the attempt back and run the cell again.
          if (record.cell == progress.inflight_cell) {
            if (--progress.intents[record.cell] == 0) {
              progress.intents.erase(record.cell);
            }
            progress.inflight_cell = -1;
          }
          break;
        }
        progress.done.insert(record.cell);
        if (record.cell == progress.inflight_cell) {
          progress.inflight_cell = -1;
        }
        break;
      case CheckpointRecordKind::kQuarantine:
        progress.quarantined.insert(record.cell);
        if (record.cell == progress.inflight_cell) {
          progress.inflight_cell = -1;
        }
        break;
      case CheckpointRecordKind::kDegrade:
        progress.degraded = true;
        break;
    }
  }
  return progress;
}

ShardProgress load_progress(const std::string& dir, int shard) {
  return digest_checkpoint(load_checkpoint(shard_checkpoint_path(dir, shard)));
}

/// Crash recovery of a shard (DESIGN.md §13): cuts the torn tail off
/// its checkpoint and its rows (classic WAL recovery: a record either
/// fully committed or never happened), then reads its progress, with
/// done records past the last commit checked against the rows that
/// survived. Corruption before the last commit is an error the caller
/// must surface, never repaired here. A shard not started yet has no
/// files and no progress.
ShardProgress recover_shard(const std::string& dir, int shard) {
  ShardProgress failed;
  const std::string ckpt_path = shard_checkpoint_path(dir, shard);
  const auto ckpt = read_file(ckpt_path);
  CheckpointLoad load;
  load.ok = true;
  if (ckpt.has_value()) {
    load = parse_checkpoint(*ckpt);
    if (!load.ok) {
      failed.error = ckpt_path + ": " + load.error;
      return failed;
    }
    if (load.torn_bytes > 0 &&
        ::truncate(ckpt_path.c_str(),
                   static_cast<off_t>(ckpt->size() - load.torn_bytes)) != 0) {
      failed.error = "truncate " + ckpt_path + ": " + std::strerror(errno);
      return failed;
    }
  }
  // Only regular files get tail recovery (the disk-full tests point the
  // results path at a character device, which must not be read back).
  const std::string rows_path = shard_results_path(dir, shard);
  std::set<std::int64_t> tail_rows;
  std::size_t row_bytes = 0;
  struct stat st{};
  if (::stat(rows_path.c_str(), &st) != 0 || S_ISREG(st.st_mode)) {
    const std::string rows = read_file(rows_path).value_or("");
    if (rows.size() < load.committed_row_bytes) {
      failed.error = rows_path + ": shorter than its last commit";
      return failed;
    }
    row_bytes = recovered_results_length(rows, load.committed_row_bytes,
                                         &tail_rows);
    if (row_bytes < rows.size() &&
        ::truncate(rows_path.c_str(), static_cast<off_t>(row_bytes)) != 0) {
      failed.error = "truncate " + rows_path + ": " + std::strerror(errno);
      return failed;
    }
  }
  ShardProgress progress = digest_checkpoint(load, &tail_rows);
  progress.uncommitted = load.records.size() > load.committed_records ||
                         row_bytes > load.committed_row_bytes;
  return progress;
}

int open_results_append(const std::string& dir, int shard) {
  return ::open(shard_results_path(dir, shard).c_str(),
                O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
}

CheckpointHeader make_header(const CampaignManifest& manifest, int shard) {
  CheckpointHeader header;
  header.shard = shard;
  header.shards = manifest.shards;
  header.campaign_seed = manifest.seed;
  header.cells = manifest.cells;
  return header;
}

bool cell_in_list(const std::vector<std::int64_t>& list, std::int64_t cell) {
  return std::find(list.begin(), list.end(), cell) != list.end();
}

/// Append a quarantine verdict: Q record in the checkpoint, failed row
/// (with the repro seed) in the result file, each fsync'd when durable.
/// Called only by the supervisor while the shard's worker is dead, so
/// never concurrently with the worker's own appends.
bool quarantine_cell(const std::string& dir, const CampaignManifest& manifest,
                     int shard, std::int64_t cell, int attempts,
                     const std::string& reason, bool durable) {
  CheckpointWriter writer;
  if (!recover_shard(dir, shard).ok ||
      !writer.open(shard_checkpoint_path(dir, shard),
                   make_header(manifest, shard), durable)) {
    return false;
  }
  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  const ResultRow row =
      make_failed_row(generator.spec(cell), attempts, reason);
  const int fd = open_results_append(dir, shard);
  if (fd < 0) return false;
  const bool row_ok = write_all(fd, render_row(row) + "\n") &&
                      (!durable || ::fsync(fd) == 0);
  (void)::close(fd);
  if (!row_ok) return false;
  CheckpointRecord record;
  record.kind = CheckpointRecordKind::kQuarantine;
  record.cell = cell;
  record.attempt = attempts;
  record.reason = reason;
  return writer.append(record);
}

/// Pre-spawn reconciliation: a cell whose attempt budget was already
/// burned (e.g. the supervisor itself was kill -9'd mid-quarantine)
/// gets its Q record + failed row now, so workers can simply skip it.
bool reconcile_shard(const std::string& dir, const CampaignManifest& manifest,
                     int shard, bool durable) {
  const ShardProgress progress = recover_shard(dir, shard);
  if (!progress.ok) return false;
  for (const auto& [cell, attempts] : progress.intents) {
    if (attempts >= manifest.max_attempts &&
        progress.done.count(cell) == 0 &&
        progress.quarantined.count(cell) == 0) {
      if (!quarantine_cell(dir, manifest, shard, cell, attempts,
                           "crash", durable)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

namespace detail {

int run_shard_worker(const CampaignOptions& options, int shard,
                     std::int64_t group_cells) {
  const CampaignManifest& manifest = options.manifest;
  const ShardProgress progress = recover_shard(options.dir, shard);
  if (!progress.ok) return 2;
  CheckpointWriter writer;
  if (!writer.open(shard_checkpoint_path(options.dir, shard),
                   make_header(manifest, shard), options.durable)) {
    return 2;
  }
  const int results_fd = open_results_append(options.dir, shard);
  if (results_fd < 0) return 2;

  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  bool degraded = progress.degraded;
  // Records wait here for the next write: cell k's done record goes
  // out with cell k+1's intent, or with the group commit.
  std::vector<CheckpointRecord> unwritten;
  std::int64_t group = 0;  // cells run since the last commit
  bool tail = progress.uncommitted;
  // Group commit (DESIGN.md §13, write ordering): the rows are durable
  // before the commit record that names their length is written.
  const auto commit_group = [&]() -> bool {
    if (!writer.write(unwritten)) return false;
    unwritten.clear();
    group = 0;
    tail = false;
    struct stat st{};
    const bool committed =
        ::fstat(results_fd, &st) == 0 &&
        (!options.durable || ::fsync(results_fd) == 0) &&
        writer.commit(static_cast<std::uint64_t>(st.st_size));
    if (committed || degraded) return true;
    // No commit record: a later commit covers this group too.
    degraded = true;
    CheckpointRecord shed;
    shed.kind = CheckpointRecordKind::kDegrade;
    shed.reason = "group-commit-failed";
    return writer.write(std::span(&shed, 1));
  };
  int exit_code = 0;
  for (std::int64_t cell = shard; cell < manifest.cells;
       cell += manifest.shards) {
    if (progress.done.count(cell) != 0 ||
        progress.quarantined.count(cell) != 0) {
      continue;
    }
    const auto intent_it = progress.intents.find(cell);
    const int attempt =
        (intent_it == progress.intents.end() ? 0 : intent_it->second) + 1;
    if (attempt > manifest.max_attempts) continue;  // supervisor's call

    // Written, not synced: the supervisor reads the page cache, so a
    // crash of this cell is charged to it.
    CheckpointRecord intent;
    intent.kind = CheckpointRecordKind::kIntent;
    intent.cell = cell;
    intent.attempt = attempt;
    unwritten.push_back(intent);
    if (!writer.write(unwritten)) {
      exit_code = 2;
      break;
    }
    unwritten.clear();

    // Deterministic failure injection (tests / CI smoke).
    if (cell_in_list(options.crash_cells, cell)) _exit(42);
    if (cell_in_list(options.hang_cells, cell)) {
      while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }

    ResultRow row;
    ScenarioSpec spec = generator.spec(cell);
    try {
      const core::ExperimentConfig config = generator.config(spec);
      row = make_row(spec, core::run_experiment(config, spec.scheme));
    } catch (const std::exception&) {
      _exit(3);  // the supervisor accounts the attempt
    }

    // Result row first, done record after it: a cell only ever counts
    // as done once its row is written.
    bool row_ok = write_all(results_fd, render_row(row) + "\n");
    if (!row_ok) {
      // Disk trouble: shed detail, keep the campaign accounting exact.
      row_ok = write_all(results_fd, render_row(make_shed_row(spec)) + "\n");
      if (!degraded) {
        CheckpointRecord shed;
        shed.kind = CheckpointRecordKind::kDegrade;
        shed.reason = row_ok ? "result-detail-shed" : "result-write-failed";
        unwritten.push_back(shed);
        degraded = true;
      }
    }

    CheckpointRecord done;
    done.kind = CheckpointRecordKind::kDone;
    done.cell = cell;
    unwritten.push_back(done);
    if (++group == group_cells && !commit_group()) {
      exit_code = 2;
      break;
    }
  }
  if (exit_code == 0 && (group > 0 || tail) && !commit_group()) {
    exit_code = 2;
  }
  (void)::close(results_fd);
  writer.close();
  return exit_code;
}

}  // namespace detail

namespace {

// --- Process-isolation supervisor --------------------------------------

struct ShardState {
  enum class Phase : std::uint8_t { kBackoff, kRunning, kDone, kBroken };
  Phase phase = Phase::kBackoff;
  pid_t pid = -1;
  Clock::time_point respawn_at = Clock::now();
  std::int64_t watch_cell = -1;
  int watch_attempt = 0;
  Clock::time_point inflight_since;
  std::size_t progress_marker = 0;  ///< done+quarantined count last seen
  Clock::time_point last_progress = Clock::now();
  int consecutive_failures = 0;
  int pidfd = -1;  ///< readable once the running worker exits; -1 if none
};

/// A pidfd for `pid`, or -1 where the kernel offers none. Opened through
/// syscall(): glibc's <sys/pidfd.h> lacks C linkage under C++.
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

void close_pidfd(ShardState& state) {
  if (state.pidfd >= 0) (void)::close(state.pidfd);
  state.pidfd = -1;
}

/// Sleeps up to `poll_ms`, and wakes as soon as a running worker with a
/// pidfd exits.
void wait_for_exit(const std::vector<ShardState>& shards,
                   std::int64_t poll_ms) {
  std::vector<pollfd> fds;
  for (const ShardState& state : shards) {
    if (state.phase == ShardState::Phase::kRunning && state.pidfd >= 0) {
      fds.push_back({state.pidfd, POLLIN, 0});
    }
  }
  (void)::poll(fds.data(), fds.size(),
               static_cast<int>(std::min<std::int64_t>(
                   poll_ms, std::numeric_limits<int>::max())));
}

/// Hard cap on fruitless restarts of one shard: enough for every retry
/// the policy allows plus slack, far below "forever".
constexpr int kMaxConsecutiveFailures = 8;

pid_t spawn_worker(const CampaignOptions& options, int shard, int lock_fd) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Worker: die with the supervisor so a kill -9 of the campaign never
  // leaves orphans appending to the shard files a resume will reopen.
  if (lock_fd >= 0) (void)::close(lock_fd);
#ifdef __linux__
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  if (::getppid() != parent) _exit(0);  // supervisor already gone
  _exit(detail::run_shard_worker(options, shard));
}

struct FailureVerdict {
  std::int64_t quarantined_cell = -1;
  bool broken = false;
};

FailureVerdict handle_worker_failure(const CampaignOptions& options,
                                     ShardState& state, int shard,
                                     const std::string& reason) {
  FailureVerdict verdict;
  state.pid = -1;
  ++state.consecutive_failures;
  const ShardProgress progress = load_progress(options.dir, shard);
  if (progress.ok && progress.inflight_cell >= 0 &&
      progress.inflight_attempt >= options.manifest.max_attempts) {
    if (quarantine_cell(options.dir, options.manifest, shard,
                        progress.inflight_cell, progress.inflight_attempt,
                        reason, options.durable)) {
      verdict.quarantined_cell = progress.inflight_cell;
      state.consecutive_failures = 0;  // quarantine is forward progress
    }
  }
  if (state.consecutive_failures >= kMaxConsecutiveFailures) {
    state.phase = ShardState::Phase::kBroken;
    verdict.broken = true;
    return verdict;
  }
  const int shift = std::min(state.consecutive_failures > 0
                                 ? state.consecutive_failures - 1
                                 : 0,
                             6);
  const std::int64_t delay_ms = options.manifest.backoff_base_ms << shift;
  state.phase = ShardState::Phase::kBackoff;
  state.respawn_at = Clock::now() + std::chrono::milliseconds(delay_ms);
  state.watch_cell = -1;
  return verdict;
}

CampaignOutcome supervise_processes(const CampaignOptions& options,
                                    int lock_fd) {
  const CampaignManifest& manifest = options.manifest;
  CampaignOutcome outcome;
  outcome.total_cells = manifest.cells;

  std::vector<ShardState> shards(
      static_cast<std::size_t>(manifest.shards));
  for (int shard = 0; shard < manifest.shards; ++shard) {
    if (!reconcile_shard(options.dir, manifest, shard, options.durable)) {
      outcome.error = "shard " + std::to_string(shard) +
                      ": checkpoint unrecoverable (see campaign lint)";
      return outcome;
    }
  }

  const auto watchdog = std::chrono::milliseconds(manifest.watchdog_ms);
  // Startup/shutdown phases have no in-flight intent to time; give the
  // whole-file stall detector more headroom than the per-cell budget.
  const auto stall_budget = watchdog * 2 + std::chrono::milliseconds(1000);

  auto all_settled = [&shards] {
    return std::all_of(shards.begin(), shards.end(), [](const ShardState& s) {
      return s.phase == ShardState::Phase::kDone ||
             s.phase == ShardState::Phase::kBroken;
    });
  };

  while (!all_settled()) {
    for (int shard = 0; shard < manifest.shards; ++shard) {
      ShardState& state = shards[static_cast<std::size_t>(shard)];
      if (state.phase == ShardState::Phase::kBackoff &&
          Clock::now() >= state.respawn_at) {
        state.pid = spawn_worker(options, shard, lock_fd);
        if (state.pid < 0) {
          outcome.error = "fork failed: " + std::string(std::strerror(errno));
          state.phase = ShardState::Phase::kBroken;
          continue;
        }
        state.pidfd = open_pidfd(state.pid);
        state.phase = ShardState::Phase::kRunning;
        state.last_progress = Clock::now();
        state.watch_cell = -1;
        continue;
      }
      if (state.phase != ShardState::Phase::kRunning) continue;

      int status = 0;
      const pid_t waited = ::waitpid(state.pid, &status, WNOHANG);
      if (waited == state.pid) {
        close_pidfd(state);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          state.phase = ShardState::Phase::kDone;
          continue;
        }
        const std::string reason =
            WIFEXITED(status) && WEXITSTATUS(status) == 3 ? "exception"
                                                          : "crash";
        log_line(options, "campaign: shard " + std::to_string(shard) +
                              " died (" + reason + "), retrying");
        ++outcome.respawns;
        const FailureVerdict verdict =
            handle_worker_failure(options, state, shard, reason);
        if (verdict.quarantined_cell >= 0) {
          log_line(options,
                   "campaign: quarantined poison cell " +
                       std::to_string(verdict.quarantined_cell));
        }
        continue;
      }

      // Watchdog: time the in-flight (cell, attempt) from its intent
      // record; kill and account the shard when the budget is blown.
      const ShardProgress progress = load_progress(options.dir, shard);
      if (!progress.ok) continue;  // mid-append read; retry next poll
      const std::size_t marker =
          progress.done.size() + progress.quarantined.size();
      if (marker > state.progress_marker) {
        state.progress_marker = marker;
        state.last_progress = Clock::now();
        state.consecutive_failures = 0;
      }
      if (progress.inflight_cell != state.watch_cell ||
          progress.inflight_attempt != state.watch_attempt) {
        state.watch_cell = progress.inflight_cell;
        state.watch_attempt = progress.inflight_attempt;
        state.inflight_since = Clock::now();
      }
      const bool cell_timeout =
          state.watch_cell >= 0 &&
          Clock::now() - state.inflight_since > watchdog;
      const bool stalled =
          Clock::now() - state.last_progress > stall_budget;
      if (cell_timeout || stalled) {
        log_line(options, "campaign: shard " + std::to_string(shard) +
                              " watchdog timeout" +
                              (state.watch_cell >= 0
                                   ? " on cell " +
                                         std::to_string(state.watch_cell)
                                   : ""));
        (void)::kill(state.pid, SIGKILL);
        (void)::waitpid(state.pid, &status, 0);
        close_pidfd(state);
        ++outcome.respawns;
        const FailureVerdict verdict = handle_worker_failure(
            options, state, shard, "watchdog-timeout");
        if (verdict.quarantined_cell >= 0) {
          log_line(options,
                   "campaign: quarantined poison cell " +
                       std::to_string(verdict.quarantined_cell));
        }
      }
    }
    if (!all_settled()) wait_for_exit(shards, options.poll_ms);
  }

  for (const ShardState& state : shards) {
    if (state.phase == ShardState::Phase::kBroken && outcome.error.empty()) {
      outcome.error = "a shard kept failing without progress; campaign left "
                      "resumable (try `campaign resume`)";
    }
  }
  return outcome;
}

/// Final accounting over the checkpoints; fills completed/quarantined/
/// degraded and decides ok.
void finalize(const std::string& dir, CampaignManifest manifest,
              CampaignOutcome& outcome) {
  std::set<std::int64_t> done;
  std::set<std::int64_t> quarantined;
  bool degraded = false;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    const ShardProgress progress = load_progress(dir, shard);
    if (!progress.ok) continue;
    done.insert(progress.done.begin(), progress.done.end());
    quarantined.insert(progress.quarantined.begin(),
                       progress.quarantined.end());
    degraded = degraded || progress.degraded;
  }
  outcome.completed = static_cast<std::int64_t>(done.size());
  outcome.quarantined = static_cast<std::int64_t>(quarantined.size());
  outcome.degraded = degraded;
  const bool accounted =
      outcome.completed + outcome.quarantined >= manifest.cells;
  if (!outcome.error.empty()) return;  // stays resumable, manifest "running"
  if (!accounted) {
    outcome.error = "campaign finished with unaccounted cells";
    return;
  }
  manifest.status = degraded ? "degraded" : "complete";
  std::string error;
  if (!write_manifest(dir, manifest, &error)) {
    // Disk too sick to even rewrite the manifest: the old (valid,
    // status=running) manifest stays in place — degraded, not corrupt.
    outcome.degraded = true;
    outcome.ok = true;
    return;
  }
  outcome.ok = true;
}

CampaignOutcome execute(const CampaignOptions& options) {
  CampaignOutcome outcome;
  outcome.total_cells = options.manifest.cells;

  // One runner per campaign directory: the lock dies with the process
  // (and its workers), so a kill -9 never wedges a later resume.
  const int lock_fd = ::open(lock_path(options.dir).c_str(),
                             O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd < 0) {
    outcome.error = "cannot open campaign lock: " +
                    std::string(std::strerror(errno));
    return outcome;
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    (void)::close(lock_fd);
    outcome.error = "another campaign runner holds " +
                    lock_path(options.dir);
    return outcome;
  }

  outcome = supervise_processes(options, lock_fd);
  finalize(options.dir, options.manifest, outcome);
  (void)::flock(lock_fd, LOCK_UN);
  (void)::close(lock_fd);
  return outcome;
}

}  // namespace

CampaignOutcome CampaignRunner::run(const CampaignOptions& options) {
  CampaignOutcome outcome;
  try {
    options.manifest.validate();
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    outcome.error = "mkdir " + options.dir + ": " +
                    std::string(std::strerror(errno));
    return outcome;
  }
  struct stat st{};
  if (::stat(manifest_path(options.dir).c_str(), &st) == 0) {
    outcome.error = options.dir +
                    " already holds a campaign (use `campaign resume`)";
    return outcome;
  }
  // Write-ahead: the manifest (naming every shard file that may ever
  // exist) is durable before any worker starts.
  std::string error;
  CampaignOptions fresh = options;
  fresh.manifest.status = "running";
  if (!write_manifest(fresh.dir, fresh.manifest, &error)) {
    outcome.error = error;
    return outcome;
  }
  return execute(fresh);
}

CampaignOutcome CampaignRunner::resume(const std::string& dir,
                                       CampaignOptions overrides) {
  CampaignOutcome outcome;
  const ManifestLoad load = load_manifest(manifest_path(dir));
  if (!load.ok) {
    outcome.error = load.error;
    return outcome;
  }
  overrides.dir = dir;
  overrides.manifest = load.manifest;
  if (load.manifest.status == "complete" ||
      load.manifest.status == "degraded") {
    overrides.manifest.status = "running";  // recount, then re-finalize
  }
  return execute(overrides);
}

std::optional<std::vector<std::int64_t>> CampaignRunner::parse_cell_list(
    const char* text) {
  std::vector<std::int64_t> cells;
  if (text == nullptr || *text == '\0') return cells;
  std::string_view rest = text;
  while (true) {
    const auto comma = rest.find(',');
    std::int64_t cell = 0;
    if (!units::parse_count(rest.substr(0, comma), cell)) return std::nullopt;
    cells.push_back(cell);
    if (comma == std::string_view::npos) return cells;
    rest.remove_prefix(comma + 1);
  }
}

}  // namespace coeff::campaign
