#include "base/task_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace sitm {

void ParallelFor(TaskRunner* runner, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain, const char* name) {
  if (n == 0) return;
  const std::size_t workers = runner == nullptr ? 1 : runner->concurrency();
  if (grain == 0) {
    // ~4 chunks per participant (workers + the calling thread): enough
    // that one slow chunk does not leave the other participants idle,
    // without drowning in dispatch overhead.
    grain = std::max<std::size_t>(1, n / ((workers + 1) * 4));
  }
  const std::size_t num_chunks = (n + grain - 1) / grain;
  if (runner == nullptr || num_chunks == 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      body(c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }

  std::vector<Task> tasks;
  tasks.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, (c + 1) * grain);
    tasks.push_back(Task{name, [&body, begin, end] { body(begin, end); }});
  }
  const Status status = runner->Run(std::move(tasks));
  if (!status.ok()) {
    // The only failure a chunk run can produce is a body that threw;
    // loop bodies are contract-bound not to (errors travel through
    // Status slots), so a throw is a bug worth stopping on.
    std::fprintf(stderr, "ParallelFor(%s): %s\n", name,
                 status.message().c_str());
    std::abort();
  }
}

}  // namespace sitm
