// sim::Study and StudyOptions under the names the million-user scale path
// was written against. Study runs every sweep, the scale path included,
// through one cohort evaluator.
#pragma once

#include "sim/study.hpp"

namespace dosn::sim {

using StreamingStudy = Study;
using StreamingOptions = StudyOptions;

}  // namespace dosn::sim
