#include "obs/log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "obs/env.h"

namespace drs::obs {

namespace {

/** Max rendered length of one value in the stderr one-liner. */
constexpr std::size_t kStderrValueLimit = 120;

/** Distinct (subsystem, event) keys tracked by the rate limiter. */
constexpr std::size_t kMaxRateEntries = 256;

std::string
flattenForStderr(const Json &value)
{
    std::string text;
    if (value.isString())
        text = value.asString();
    else
        text = value.dump();
    // One line per event, always: escape embedded newlines (a watchdog
    // dump is multi-line) and truncate the long tail.
    std::string out;
    out.reserve(std::min(text.size(), kStderrValueLimit) + 8);
    for (char c : text) {
        if (out.size() >= kStderrValueLimit) {
            out += "...";
            break;
        }
        if (c == '\n')
            out += "\\n";
        else if (c == '\t')
            out += ' ';
        else
            out += c;
    }
    return out;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::Debug:
        return "debug";
    case LogLevel::Info:
        return "info";
    case LogLevel::Warn:
        return "warn";
    case LogLevel::Error:
        return "error";
    case LogLevel::Off:
        return "off";
    }
    return "unknown";
}

bool
parseLogLevel(std::string_view text, LogLevel *out)
{
    struct Name
    {
        std::string_view name;
        LogLevel level;
    };
    static constexpr Name kNames[] = {
        {"debug", LogLevel::Debug}, {"0", LogLevel::Debug},
        {"info", LogLevel::Info},   {"1", LogLevel::Info},
        {"warn", LogLevel::Warn},   {"warning", LogLevel::Warn},
        {"2", LogLevel::Warn},      {"error", LogLevel::Error},
        {"3", LogLevel::Error},     {"off", LogLevel::Off},
        {"none", LogLevel::Off},    {"4", LogLevel::Off},
    };
    for (const Name &entry : kNames)
        if (text == entry.name) {
            *out = entry.level;
            return true;
        }
    return false;
}

std::uint64_t
logNowMicros()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1'000u;
}

LogConfig
LogConfig::fromEnvironment()
{
    LogConfig config;
    envText("DRS_LOG", &config.path);
    const auto level = [](std::string_view text) {
        LogLevel value = LogLevel::Info;
        return parseLogLevel(text, &value) ? std::optional(value)
                                           : std::nullopt;
    };
    envRead("DRS_LOG_LEVEL", &config.level, level, "debug|info|warn|error");
    envRead("DRS_LOG_STDERR", &config.stderrLevel, level,
            "debug|info|warn|error|off");
    envInt("DRS_LOG_RATE", &config.maxEventsPerWindow, 0, 1'000'000);
    return config;
}

EventLog::~EventLog() { close(); }

void
EventLog::configure(const LogConfig &config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    config_ = config;
    if (config_.rateWindowSeconds <= 0)
        config_.rateWindowSeconds = 1.0;
    rate_.clear();
    if (config_.path.empty())
        return;
    fd_ = ::open(config_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        std::fprintf(stderr, "warning: cannot open DRS_LOG '%s': %s\n",
                     config_.path.c_str(), std::strerror(errno));
        config_.path.clear();
    }
}

void
EventLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::uint64_t
EventLog::emitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return emitted_;
}

std::uint64_t
EventLog::suppressed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return suppressedTotal_;
}

bool
EventLog::admit(std::string_view subsystem, std::string_view event,
                std::uint64_t now_us)
{
    if (config_.maxEventsPerWindow <= 0)
        return true;
    std::string key;
    key.reserve(subsystem.size() + event.size() + 1);
    key.append(subsystem);
    key.push_back('/');
    key.append(event);

    RateEntry *entry = nullptr;
    for (RateEntry &candidate : rate_)
        if (candidate.key == key) {
            entry = &candidate;
            break;
        }
    if (entry == nullptr) {
        if (rate_.size() >= kMaxRateEntries)
            return true; // table full: stop limiting rather than dropping
        rate_.push_back(RateEntry{key, now_us, 0, 0});
        entry = &rate_.back();
    }

    const auto window = static_cast<std::uint64_t>(
        config_.rateWindowSeconds * 1'000'000.0);
    if (now_us - entry->windowStartMicros >= window) {
        // New window: report what the old one swallowed, then reset.
        if (entry->suppressed > 0) {
            Json data = Json::object();
            data["subsystem"] = Json(std::string(subsystem));
            data["event"] = Json(std::string(event));
            data["suppressed"] = Json(entry->suppressed);
            emitLine(LogLevel::Warn, "log", "rate_limited", &data, now_us);
        }
        entry->windowStartMicros = now_us;
        entry->count = 0;
        entry->suppressed = 0;
    }
    if (entry->count >= config_.maxEventsPerWindow) {
        ++entry->suppressed;
        ++suppressedTotal_;
        return false;
    }
    ++entry->count;
    return true;
}

void
EventLog::emitLine(LogLevel level, std::string_view subsystem,
                   std::string_view event, const Json *data,
                   std::uint64_t ts_us)
{
    bool reached_sink = false;
    if (fd_ >= 0 && level >= config_.level) {
        Json record = Json::object();
        record["ts_us"] = Json(ts_us);
        record["pid"] = Json(static_cast<long long>(::getpid()));
        record["level"] = Json(logLevelName(level));
        record["subsystem"] = Json(std::string(subsystem));
        record["event"] = Json(std::string(event));
        if (data != nullptr && !data->isNull())
            record["data"] = *data;
        const std::string line = record.dump() + "\n";
        // One write(2) per line: O_APPEND makes concurrent writers
        // (forked workers sharing this fd or their own) atomic enough
        // that lines never interleave mid-record.
        std::size_t written = 0;
        while (written < line.size()) {
            const ssize_t n = ::write(fd_, line.data() + written,
                                      line.size() - written);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            written += static_cast<std::size_t>(n);
        }
        reached_sink = true;
    }
    if (level >= config_.stderrLevel && config_.stderrLevel < LogLevel::Off) {
        std::ostringstream line;
        line << "[drs " << ::getpid() << "] " << logLevelName(level) << ' '
             << subsystem << '.' << event;
        if (data != nullptr && data->isObject())
            for (const auto &[key, value] : data->asObject())
                line << ' ' << key << '=' << flattenForStderr(value);
        line << '\n';
        const std::string text = line.str();
        std::fwrite(text.data(), 1, text.size(), stderr);
        reached_sink = true;
    }
    if (reached_sink)
        ++emitted_;
}

void
EventLog::log(LogLevel level, std::string_view subsystem,
              std::string_view event, Json data)
{
    if (level >= LogLevel::Off)
        level = LogLevel::Error;
    if (!wouldLog(level))
        return;
    const std::uint64_t now_us = logNowMicros();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!admit(subsystem, event, now_us))
        return;
    emitLine(level, subsystem, event, &data, now_us);
}

EventLog &
EventLog::global()
{
    static EventLog *instance = new EventLog(LogConfig::fromEnvironment());
    return *instance;
}

void
logEvent(LogLevel level, std::string_view subsystem, std::string_view event,
         Json data)
{
    EventLog::global().log(level, subsystem, event, std::move(data));
}

} // namespace drs::obs
