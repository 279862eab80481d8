#include "api/contribution.h"

#include "api/workload.h"

namespace renamelib::api {

void Contribution::fold_into(Run& run, bool finished) const {
  run.metrics.merge(metrics);
  run.latency.merge(latency);
  run.events.merge(events);
  if (finished) {
    run.proc_steps.push_back(proc_steps);
    run.finished_procs += 1;
  }
}

}  // namespace renamelib::api
