#include "campaign/runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
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
  bool ok = false;
  std::string error;
};

ShardProgress digest_checkpoint(const CheckpointLoad& load) {
  ShardProgress progress;
  progress.ok = load.ok;
  progress.error = load.error;
  if (!load.ok) return progress;
  for (const CheckpointRecord& record : load.records) {
    switch (record.kind) {
      case CheckpointRecordKind::kIntent: {
        int& attempts = progress.intents[record.cell];
        attempts = std::max(attempts, record.attempt);
        progress.inflight_cell = record.cell;
        progress.inflight_attempt = attempts;
        break;
      }
      case CheckpointRecordKind::kDone:
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

/// Open a result file for append, first truncating the torn
/// (newline-less or half-written) tail a kill may have left — classic
/// WAL recovery: a record either fully committed or never happened.
int open_results_append(const std::string& path, bool create) {
  // Only regular files get tail recovery (the disk-full tests point the
  // results path at a character device, which must not be read back).
  struct stat st{};
  const bool regular =
      ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
  const auto bytes =
      regular ? read_file(path) : std::optional<std::string>();
  if (bytes.has_value() && !bytes->empty() && bytes->back() != '\n') {
    const auto keep = bytes->find_last_of('\n');
    const off_t new_size =
        keep == std::string::npos ? 0 : static_cast<off_t>(keep) + 1;
    (void)::truncate(path.c_str(), new_size);
  }
  const int flags = O_WRONLY | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0);
  return ::open(path.c_str(), flags, 0644);
}

/// Truncate a checkpoint's torn tail (if any) so appended records
/// never splice into a half-written one. Mid-file corruption is NOT
/// repaired here — that is an error the caller must surface.
bool recover_checkpoint_tail(const std::string& path, std::string* error) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return true;  // fresh shard, nothing to recover
  const CheckpointLoad load = parse_checkpoint(*bytes);
  if (!load.ok) {
    if (error != nullptr) *error = path + ": " + load.error;
    return false;
  }
  if (load.recovered_torn_tail && load.torn_bytes > 0) {
    const auto new_size =
        static_cast<off_t>(bytes->size() - load.torn_bytes);
    if (::truncate(path.c_str(), new_size) != 0) {
      if (error != nullptr) {
        *error = "truncate " + path + ": " + std::strerror(errno);
      }
      return false;
    }
  }
  return true;
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
/// (with the repro seed) in the result file. Called only by the
/// supervisor while the shard's worker is dead, so never concurrently
/// with the worker's own appends.
bool quarantine_cell(const std::string& dir, const CampaignManifest& manifest,
                     int shard, std::int64_t cell, int attempts,
                     const std::string& reason, bool durable) {
  CheckpointWriter writer;
  std::string error;
  if (!recover_checkpoint_tail(shard_checkpoint_path(dir, shard), &error) ||
      !writer.open(shard_checkpoint_path(dir, shard),
                   make_header(manifest, shard), durable, &error)) {
    return false;
  }
  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  const ResultRow row =
      make_failed_row(generator.spec(cell), attempts, reason);
  const int fd = open_results_append(shard_results_path(dir, shard), true);
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
  std::string error;
  if (!recover_checkpoint_tail(shard_checkpoint_path(dir, shard), &error)) {
    return false;
  }
  const ShardProgress progress = load_progress(dir, shard);
  if (!progress.ok) {
    // No checkpoint yet (fresh shard) is fine; corruption is not.
    struct stat st{};
    return ::stat(shard_checkpoint_path(dir, shard).c_str(), &st) != 0;
  }
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

/// The shard worker loop, run in a forked child. Exit codes: 0 done, 2
/// unrecoverable checkpoint IO error; a cell that throws exits 3 and an
/// injected crash 42, and the supervisor retries or quarantines it.
int run_shard_worker(const CampaignOptions& options, int shard) {
  const CampaignManifest& manifest = options.manifest;
  const std::string ckpt_path =
      shard_checkpoint_path(options.dir, shard);
  std::string error;
  if (!recover_checkpoint_tail(ckpt_path, &error)) return 2;
  CheckpointWriter writer;
  if (!writer.open(ckpt_path, make_header(manifest, shard), options.durable,
                   &error)) {
    return 2;
  }
  ShardProgress progress = load_progress(options.dir, shard);
  if (!progress.ok) return 2;

  const int results_fd = open_results_append(
      shard_results_path(options.dir, shard), /*create=*/true);
  if (results_fd < 0) return 2;

  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  bool degraded = progress.degraded;
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

    CheckpointRecord intent;
    intent.kind = CheckpointRecordKind::kIntent;
    intent.cell = cell;
    intent.attempt = attempt;
    if (!writer.append(intent)) {
      exit_code = 2;
      break;
    }

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

    // Result row first (fsync'd), done record second: a cell only ever
    // counts as done once its row is durable.
    bool row_ok = write_all(results_fd, render_row(row) + "\n") &&
                  (!options.durable || ::fsync(results_fd) == 0);
    if (!row_ok) {
      // Disk trouble: shed detail, keep the campaign accounting exact.
      row_ok = write_all(results_fd, render_row(make_shed_row(spec)) + "\n") &&
               (!options.durable || ::fsync(results_fd) == 0);
      if (!degraded) {
        CheckpointRecord shed;
        shed.kind = CheckpointRecordKind::kDegrade;
        shed.reason = row_ok ? "result-detail-shed" : "result-write-failed";
        if (!writer.append(shed)) {
          exit_code = 2;
          break;
        }
        degraded = true;
      }
    }

    CheckpointRecord done;
    done.kind = CheckpointRecordKind::kDone;
    done.cell = cell;
    if (!writer.append(done)) {
      exit_code = 2;
      break;
    }
  }
  (void)::close(results_fd);
  writer.close();
  return exit_code;
}

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
};

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
  _exit(run_shard_worker(options, shard));
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
        state.phase = ShardState::Phase::kRunning;
        state.last_progress = Clock::now();
        state.watch_cell = -1;
        continue;
      }
      if (state.phase != ShardState::Phase::kRunning) continue;

      int status = 0;
      const pid_t waited = ::waitpid(state.pid, &status, WNOHANG);
      if (waited == state.pid) {
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
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
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
