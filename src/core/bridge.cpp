#include "core/bridge.hpp"

#include <cstdio>

#include "instrument/tracer.hpp"

namespace nek_sensei {

Bridge::Bridge(
    nekrs::FlowSolver& solver, const std::string& sensei_xml,
    const std::function<void(sensei::ConfigurableAnalysis&)>& customize)
    : solver_(solver),
      pipeline_config_(
          sensei::ParsePipelineConfig(xmlcfg::Parse(sensei_xml).root)),
      // Split is collective over the stepping communicator; every rank
      // reaches this constructor with the same XML, so the async decision
      // is globally consistent.  Key = rank keeps the numbering identical,
      // which keeps every per-rank output filename identical to sync mode.
      analysis_comm_(pipeline_config_.async
                         ? solver.Comm().Split(0, solver.Comm().Rank())
                         : solver.Comm()),
      analysis_(analysis_comm_) {
  data_.Initialize(&solver_);
  if (customize) customize(analysis_);
  analysis_.Initialize(xmlcfg::Parse(sensei_xml).root);
  if (pipeline_config_.async) {
    pipeline_ = std::make_unique<AsyncPipeline>(
        solver_, analysis_, data_, analysis_comm_, pipeline_config_.depth);
  }
}

bool Bridge::Update() {
  if (pipeline_) {
    // The rank-thread cost of async mode is capture + enqueue, traced as
    // async.submit inside the pipeline; the worker opens bridge.update
    // around its Execute so the span keeps meaning "time inside SENSEI".
    return pipeline_->Submit(solver_.StepNumber(), solver_.Time());
  }
  instrument::Span span("bridge.update");
  data_.SetPipelineTime(solver_.StepNumber(), solver_.Time());
  return analysis_.Execute(data_);
}

void Bridge::Finalize() {
  if (finalized_) return;
  if (pipeline_) {
    // Drains the queue, runs analysis_.Finalize() as the last worker job,
    // joins, and folds the worker's metrics/stats into this rank.
    pipeline_->Shutdown();
  } else {
    analysis_.Finalize();
  }
  finalized_ = true;
  // End-of-run telemetry digest: one line per traced rank (span totals,
  // drops if the ring wrapped, counter totals), so trace truncation can
  // never pass silently.
  if (const instrument::Tracer* tracer = instrument::CurrentTracer()) {
    std::fprintf(stderr, "%s\n", tracer->SummaryLine().c_str());
    // Flush before the mpimini runtime tears the rank threads down: an
    // unflushed stdio buffer can lose the digest of a rank whose thread
    // exits last (observed with per-rank summaries interleaving at exit).
    std::fflush(stderr);
  }
}

}  // namespace nek_sensei
