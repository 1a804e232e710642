#include "common/logging.hpp"

#include <cstdio>

namespace themis {

LogLevel Logger::global_level_ = LogLevel::Warn;

void
Logger::setLevel(LogLevel level)
{
    global_level_ = level;
}

void
Logger::write(LogLevel level, const std::string& msg)
{
    const char* prefix = "";
    switch (level) {
      case LogLevel::Debug: prefix = "debug"; break;
      case LogLevel::Info:  prefix = "info";  break;
      case LogLevel::Warn:  prefix = "warn";  break;
      case LogLevel::Error: prefix = "error"; break;
      case LogLevel::Off:   return;
    }
    std::fprintf(stderr, "[themis:%s] %s\n", prefix, msg.c_str());
}

} // namespace themis
