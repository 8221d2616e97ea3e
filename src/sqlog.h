#ifndef SQLOG_SQLOG_H_
#define SQLOG_SQLOG_H_

/// Umbrella header for the public surface of the library. Applications
/// (examples, tools, downstream users) include this one header instead
/// of reaching into the library's subdirectories:
///
///   - the end-to-end cleaning pipeline (sqlog::core::Pipeline, configured
///     by one PipelineOptions; re-cleaning is a second run over the first
///     run's clean log),
///   - the detector registry — the Sec. 5.4 extension point and the one
///     detection API (sqlog::core::Detector, DetectorRegistry,
///     DetectorSet; application code registers Detector subclasses with
///     DetectorRegistry::Global().Register, detectors are selected by
///     registry id, and statistics carry one Table 5 row pair per
///     detector of the run's set),
///   - the log model and CSV I/O (sqlog::log::QueryLog, LogIo),
///   - the synthetic SkyServer-style workload generator
///     (sqlog::log::GenerateLog),
///   - the schema catalog consulted by Def. 11's key-attribute axiom
///     (sqlog::catalog::Schema, MakeSkyServerSchema),
///   - the error model every fallible API returns
///     (sqlog::Status, sqlog::Result<T>),
///   - the thread pool behind PipelineOptions::num_threads
///     (sqlog::util::ThreadPool).
///
/// Internal headers (sql/, engine/, analysis/ internals) are not
/// re-exported; include them directly when extending the library
/// itself.

#include "catalog/schema.h"
#include "core/pipeline.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "log/record.h"
#include "util/status.h"
#include "util/thread_pool.h"

#endif  // SQLOG_SQLOG_H_
