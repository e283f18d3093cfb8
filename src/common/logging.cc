#include "common/logging.h"

#include <atomic>

namespace teleport {

namespace {
// Atomic: log statements run concurrently on sim::LegRunner threads; the
// level is process-wide config written before any leg starts.
std::atomic<LogLevel> g_log_level{LogLevel::kWarning};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() {
  return g_log_level.load(std::memory_order_relaxed);
}
void SetLogLevel(LogLevel level) {
  g_log_level.store(level, std::memory_order_relaxed);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level),
      fatal_(fatal),
      enabled_(fatal || level >= g_log_level.load(std::memory_order_relaxed)) {
  if (enabled_) {
    stream_ << "[" << LevelName(level_) << " " << file << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace teleport
