// The benchmark's workloads. Each has a generator, which writes every input
// into Args::data from Args::seed, and a run, which reads only those inputs,
// measures for Args::seconds, checks the outputs and fills the report:
// end-to-end metrics untraced, layer metrics when Args::trace is set.
#pragma once

#include "bench.hpp"

namespace hb {

/// Scale of the Netflix-shaped paper preset that train-netflix solves and
/// serve-zipf serves: 75k x 2.7k x 312 with 2M nonzeros.
inline constexpr double kNetflixScale = 5.0;

void gen_train(const Args& args);
void run_train(const Args& args, Report& report);

void gen_complete(const Args& args);
void run_complete(const Args& args, Report& report);

void gen_serve(const Args& args);
void run_serve(const Args& args, Report& report);

}  // namespace hb
