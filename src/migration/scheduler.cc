#include "migration/scheduler.h"

#include <algorithm>
#include <cmath>

namespace udr::migration {

using replication::ReplicaSet;

MigrationScheduler::MigrationScheduler(routing::PartitionMap* map,
                                       routing::Router* router,
                                       const BandwidthModel* bandwidth,
                                       sim::Network* network, Metrics* metrics,
                                       obs::FlightRecorder* flight)
    : map_(map),
      router_(router),
      bandwidth_(bandwidth),
      network_(network),
      metrics_(metrics),
      flight_(flight) {}

uint64_t MigrationScheduler::EnqueuePlan(const MigrationPlan& plan) {
  const uint64_t plan_id = next_plan_id_++;
  for (const MigrationTaskSpec& spec : plan.tasks) {
    // Idempotency: a partition (or identity) with a non-terminal task keeps
    // its original task; re-planning over in-flight work adds nothing.
    if (spec.kind == TaskKind::kPrimaryMove) {
      if (!partitions_in_flight_.insert(spec.partition).second) continue;
    } else {
      if (!identities_in_flight_.insert(spec.identity).second) continue;
      // The identity's migration window opens now: its record is still on
      // the old partition while the ring already names the new owner, so
      // bypassed reads would misroute until the cutover clears this.
      router_->AddBypassException(spec.identity);
    }
    MigrationTask task;
    task.id = next_task_id_++;
    task.plan = plan_id;
    task.spec = spec;
    tasks_.push_back(std::move(task));
    metrics_->Add("migration.tasks_planned");
  }
  return plan_id;
}

const MigrationTask* MigrationScheduler::CurrentTask() const {
  for (size_t i = cursor_; i < tasks_.size(); ++i) {
    if (!tasks_[i].terminal()) return &tasks_[i];
  }
  return nullptr;
}

int64_t MigrationScheduler::RateForTask(const MigrationTask& task) const {
  sim::SiteId from, to;
  if (task.spec.kind == TaskKind::kPrimaryMove) {
    from = map_->se_info(static_cast<size_t>(task.spec.from_se)).se->site();
    to = map_->se_info(static_cast<size_t>(task.spec.to_se)).se->site();
  } else {
    from = map_->partition(task.spec.from_partition)->master_site();
    to = map_->partition(task.spec.to_partition)->master_site();
  }
  return bandwidth_->EffectiveBps(from, to);
}

int64_t MigrationScheduler::CurrentRateBps() const {
  const MigrationTask* task = CurrentTask();
  return task != nullptr ? RateForTask(*task) : 0;
}

int64_t MigrationScheduler::NextStepBytes() const {
  const MigrationTask* task = CurrentTask();
  if (task == nullptr) return 0;
  int64_t remaining;
  if (task->spec.kind == TaskKind::kPrimaryMove &&
      task->state != TaskState::kPending) {
    remaining = task->stream.estimated_bytes - task->stream.bytes_moved;
  } else {
    remaining = task->spec.estimated_bytes - task->bytes_moved;
  }
  remaining = std::max<int64_t>(remaining, 1);
  return std::min(bandwidth_->chunk_bytes(), remaining);
}

int64_t MigrationScheduler::BurstCapBytes(int64_t rate) const {
  int64_t window_bytes = rate * kBurstWindow / 1'000'000;
  return std::max(bandwidth_->chunk_bytes(), window_bytes);
}

void MigrationScheduler::RefillTokens() {
  const MicroTime now = Now();
  const int64_t rate = CurrentRateBps();
  if (rate <= 0) {
    last_refill_ = now;
    return;  // Unthrottled: the bucket is not consulted.
  }
  tokens_ += static_cast<double>(rate) *
             static_cast<double>(now - last_refill_) / 1e6;
  const double cap = static_cast<double>(BurstCapBytes(rate));
  if (tokens_ > cap) tokens_ = cap;
  last_refill_ = now;
}

MicroTime MigrationScheduler::NextDeadline() const {
  const MigrationTask* task = CurrentTask();
  if (task == nullptr) return kTimeInfinity;
  const int64_t rate = RateForTask(*task);
  if (rate <= 0) return Now();  // Unthrottled: work is ready now.
  const int64_t need = NextStepBytes();
  double avail = tokens_ + static_cast<double>(rate) *
                               static_cast<double>(Now() - last_refill_) / 1e6;
  avail = std::min(avail, static_cast<double>(BurstCapBytes(rate)));
  if (avail >= static_cast<double>(need)) return Now();
  const double deficit = static_cast<double>(need) - avail;
  return Now() + static_cast<MicroTime>(std::ceil(deficit * 1e6 /
                                                  static_cast<double>(rate)));
}

bool MigrationScheduler::Pump() {
  RefillTokens();
  bool progressed = false;
  while (cursor_ < tasks_.size()) {
    MigrationTask& task = tasks_[cursor_];
    if (task.terminal()) {
      ++cursor_;
      continue;
    }
    if (!StepTask(&task, /*unlimited=*/false, &progressed)) break;
  }
  return progressed;
}

void MigrationScheduler::DrainAll() { Drain(/*primary_moves_only=*/false); }

void MigrationScheduler::DrainPrimaryMoves() {
  Drain(/*primary_moves_only=*/true);
}

void MigrationScheduler::Drain(bool primary_moves_only) {
  bool progressed = false;
  for (size_t i = cursor_; i < tasks_.size(); ++i) {
    MigrationTask& task = tasks_[i];
    if (task.terminal()) continue;
    if (primary_moves_only && task.spec.kind != TaskKind::kPrimaryMove) {
      continue;
    }
    StepTask(&task, /*unlimited=*/true, &progressed);
  }
  while (cursor_ < tasks_.size() && tasks_[cursor_].terminal()) ++cursor_;
}

bool MigrationScheduler::StepTask(MigrationTask* task, bool unlimited,
                                  bool* progressed) {
  const int64_t rate = RateForTask(*task);
  const bool throttled = !unlimited && rate > 0;

  if (task->spec.kind == TaskKind::kRehome) {
    if (throttled) {
      int64_t need = std::min(bandwidth_->chunk_bytes(),
                              std::max<int64_t>(task->spec.estimated_bytes, 1));
      if (tokens_ < static_cast<double>(need)) return false;
    }
    StepRehome(task);
    if (throttled) tokens_ -= static_cast<double>(task->bytes_moved);
    *progressed = true;
    return true;
  }

  ReplicaSet* rs = map_->partition(task->spec.partition);
  while (true) {
    switch (task->state) {
      case TaskState::kPending: {
        task->started = Now();
        // Each migration task is its own trace: the seeded decision keeps
        // replays tracing the same moves, and every chunk/cutover span below
        // hangs off this context.
        if (tracer_ != nullptr) task->trace = tracer_->StartTrace();
        // Late re-validation: a failover can relocate the primary while the
        // task sits in the queue, making the plan-time donor stale — or the
        // move moot (the planned target already took over).
        storage::StorageElement* target =
            map_->se_info(static_cast<size_t>(task->spec.to_se)).se;
        storage::StorageElement* current = rs->replica_se(rs->master_id());
        if (current == target) {
          task->report.new_master = rs->master_id();
          task->state = TaskState::kDone;
          task->finished = Now();
          FinishTask(task);
          *progressed = true;
          return true;
        }
        task->spec.from_se = map_->IndexOfSe(current);
        auto stream = rs->BeginPrimaryMigration(target);
        if (!stream.ok()) {
          Fail(task, stream.status());
          return true;
        }
        task->stream = *std::move(stream);
        task->state = task->stream.copy_done() ? TaskState::kCatchUp
                                               : TaskState::kCopying;
        *progressed = true;
        break;
      }
      case TaskState::kCopying:
      case TaskState::kCatchUp: {
        if (rs->MigrationLag(task->stream) == 0) {
          Cutover(task, rs);
          return true;
        }
        if (throttled) {
          int64_t remaining = std::max<int64_t>(
              task->stream.estimated_bytes - task->stream.bytes_moved, 1);
          int64_t need = std::min(bandwidth_->chunk_bytes(), remaining);
          if (tokens_ < static_cast<double>(need)) return false;
        }
        auto shipped = rs->ShipMigrationChunk(&task->stream,
                                              bandwidth_->chunk_bytes());
        if (!shipped.ok()) {
          // The target died / the link broke / the master changed: discard
          // the partial copy, the source stays authoritative (no map flip).
          rs->AbortMigration(&task->stream);
          Fail(task, shipped.status());
          return true;
        }
        // An unlimited drain is outside the pacing contract: it must not
        // leave the bucket in debt and starve the next background plan.
        if (throttled) tokens_ -= static_cast<double>(*shipped);
        task->bytes_moved = task->stream.bytes_moved;
        if (*shipped > 0) {
          metrics_->Observe("migration.chunk_bytes", *shipped);
          const sim::SiteId from =
              map_->se_info(static_cast<size_t>(task->spec.from_se))
                  .se->site();
          const sim::SiteId to =
              map_->se_info(static_cast<size_t>(task->spec.to_se)).se->site();
          const MicroDuration transfer_us =
              bandwidth_->TransferTime(from, to, *shipped);
          metrics_->Observe("migration.chunk_transfer_us", transfer_us);
          if (tracer_ != nullptr) {
            tracer_->RecordSpan("migration.chunk", task->trace, Now(),
                                Now() + transfer_us);
          }
          *progressed = true;
        }
        task->state = task->stream.copy_done() ? TaskState::kCatchUp
                                               : TaskState::kCopying;
        if (*shipped == 0) {
          Cutover(task, rs);
          return true;
        }
        break;
      }
      case TaskState::kDone:
      case TaskState::kFailed:
        return true;
    }
  }
}

void MigrationScheduler::StepRehome(MigrationTask* task) {
  task->started = Now();
  if (!rehome_executor_) {
    Fail(task, Status::Internal("no re-home executor installed"));
    return;
  }
  auto moved = rehome_executor_(task->spec);
  if (!moved.ok()) {
    // The record stays on its old partition and the binding stands; the
    // bypass exception installed at enqueue keeps reads routing through the
    // location stage, so nothing is lost — only the fast path stays off for
    // this identity until a later ring change re-plans it.
    Fail(task, moved.status());
    return;
  }
  task->bytes_moved = *moved;
  task->state = TaskState::kDone;
  task->finished = Now();
  // Cutover lifecycle rule (same as the PR 4 delete rule): the migration
  // window is over and ring owner == provisioned location again, so the
  // exception must not linger until the next explicit re-home pass.
  router_->ClearBypassException(task->spec.identity);
  FinishTask(task);
}

void MigrationScheduler::Cutover(MigrationTask* task, ReplicaSet* rs) {
  const int64_t lag = rs->MigrationLag(task->stream);
  const sim::SiteId from_site =
      map_->se_info(static_cast<size_t>(task->spec.from_se)).se->site();
  storage::StorageElement* to_se =
      map_->se_info(static_cast<size_t>(task->spec.to_se)).se;
  auto report = rs->CompleteMigration(&task->stream);
  if (!report.ok()) {
    rs->AbortMigration(&task->stream);
    Fail(task, report.status());
    return;
  }
  map_->NotePrimaryMoved(task->spec.partition, task->spec.from_se,
                         task->spec.to_se, *report);
  task->report = *report;
  task->bytes_moved = report->bytes_moved;
  // The atomic flip: one ownership round trip plus whatever final delta the
  // catch-up left (normally zero — the flip happens inside the same step
  // that drained the lag).
  task->cutover_latency =
      network_->topology().Rtt(from_site, to_se->site()) +
      lag * to_se->WriteServiceTime();
  task->state = TaskState::kDone;
  task->finished = Now();
  metrics_->Observe("migration.cutover_latency", task->cutover_latency);
  if (tracer_ != nullptr) {
    tracer_->RecordSpan("migration.cutover", task->trace, Now(),
                        Now() + task->cutover_latency);
  }
  flight_->Record(Now(), "migration", "cutover",
                  "partition=" + std::to_string(task->spec.partition) +
                      " from_se=" + std::to_string(task->spec.from_se) +
                      " to_se=" + std::to_string(task->spec.to_se));
  FinishTask(task);
}

void MigrationScheduler::Fail(MigrationTask* task, Status error) {
  task->error = std::move(error);
  task->state = TaskState::kFailed;
  task->finished = Now();
  flight_->Record(Now(), "migration", "task.failed",
                  "task=" + std::to_string(task->id) + " " +
                      task->error.ToString());
  FinishTask(task);
}

void MigrationScheduler::FinishTask(MigrationTask* task) {
  if (task->spec.kind == TaskKind::kPrimaryMove) {
    partitions_in_flight_.erase(task->spec.partition);
  } else {
    identities_in_flight_.erase(task->spec.identity);
  }
  if (task->state == TaskState::kDone) {
    metrics_->Add("migration.tasks_done");
    metrics_->Add("migration.bytes_moved", task->bytes_moved);
  } else {
    metrics_->Add("migration.tasks_failed");
  }
}

bool MigrationScheduler::RebalanceInFlight() const {
  for (size_t i = cursor_; i < tasks_.size(); ++i) {
    if (!tasks_[i].terminal() &&
        tasks_[i].spec.kind == TaskKind::kPrimaryMove) {
      return true;
    }
  }
  return false;
}

MigrationProgress MigrationScheduler::Progress() const {
  MigrationProgress p;
  for (const MigrationTask& task : tasks_) {
    ++p.tasks_total;
    p.bytes_estimated += task.spec.estimated_bytes;
    p.bytes_moved += task.bytes_moved;
    switch (task.state) {
      case TaskState::kDone: ++p.tasks_done; break;
      case TaskState::kFailed: ++p.tasks_failed; break;
      default: ++p.tasks_pending; break;
    }
  }
  p.active = p.tasks_pending > 0;
  return p;
}

}  // namespace udr::migration
