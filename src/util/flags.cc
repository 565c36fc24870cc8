#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

FlagParser& FlagParser::Register(const std::string& name, Flag flag) {
  CHECK(!flags_.count(name));
  flags_.emplace(name, std::move(flag));
  return *this;
}

FlagParser& FlagParser::AddString(const std::string& name,
                                  std::string default_value,
                                  std::string help) {
  Flag f;
  f.type = FlagType::kString;
  f.help = std::move(help);
  f.string_value = std::move(default_value);
  return Register(name, std::move(f));
}

FlagParser& FlagParser::AddInt(const std::string& name, int64_t default_value,
                               std::string help) {
  Flag f;
  f.type = FlagType::kInt;
  f.help = std::move(help);
  f.int_value = default_value;
  return Register(name, std::move(f));
}

FlagParser& FlagParser::AddDouble(const std::string& name,
                                  double default_value, std::string help) {
  Flag f;
  f.type = FlagType::kDouble;
  f.help = std::move(help);
  f.double_value = default_value;
  return Register(name, std::move(f));
}

FlagParser& FlagParser::AddBool(const std::string& name, bool default_value,
                                std::string help) {
  Flag f;
  f.type = FlagType::kBool;
  f.help = std::move(help);
  f.bool_value = default_value;
  return Register(name, std::move(f));
}

Status FlagParser::SetFromString(const std::string& name,
                                 const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& f = it->second;
  char* end = nullptr;
  switch (f.type) {
    case FlagType::kString:
      f.string_value = value;
      return Status::Ok();
    case FlagType::kInt: {
      errno = 0;
      const int64_t v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument(
            "--" + name + " is out of range for a 64-bit integer, got '" +
            value + "'");
      }
      f.int_value = v;
      return Status::Ok();
    }
    case FlagType::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      f.double_value = v;
      return Status::Ok();
    }
    case FlagType::kBool: {
      if (value == "true" || value == "1") {
        f.bool_value = true;
      } else if (value == "false" || value == "0") {
        f.bool_value = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      INFOSHIELD_RETURN_IF_ERROR(
          SetFromString(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (it->second.type == FlagType::kBool) {
      it->second.bool_value = true;  // bare boolean flag
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("--" + body + " is missing a value");
    }
    INFOSHIELD_RETURN_IF_ERROR(SetFromString(body, argv[++i]));
  }
  return Status::Ok();
}

const FlagParser::Flag& FlagParser::Get(const std::string& name,
                                        FlagType expected) const {
  auto it = flags_.find(name);
  CHECK(it != flags_.end()) << "unregistered flag " << name;
  CHECK(it->second.type == expected) << "type mismatch for flag " << name;
  return it->second;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return Get(name, FlagType::kString).string_value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  return Get(name, FlagType::kInt).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return Get(name, FlagType::kDouble).double_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return Get(name, FlagType::kBool).bool_value;
}

std::string FlagParser::Usage(const std::string& program_name) const {
  std::string out = "usage: " + program_name + " [flags] [positional...]\n";
  for (const auto& [name, flag] : flags_) {
    std::string default_repr;
    const char* type_name = "";
    switch (flag.type) {
      case FlagType::kString:
        type_name = "string";
        default_repr = "\"" + flag.string_value + "\"";
        break;
      case FlagType::kInt:
        type_name = "int";
        default_repr = std::to_string(flag.int_value);
        break;
      case FlagType::kDouble:
        type_name = "double";
        default_repr = FormatDouble(flag.double_value, 4);
        break;
      case FlagType::kBool:
        type_name = "bool";
        default_repr = flag.bool_value ? "true" : "false";
        break;
    }
    out += StrFormat("  --%-24s (%s, default %s)\n      %s\n", name.c_str(),
                     type_name, default_repr.c_str(), flag.help.c_str());
  }
  return out;
}

}  // namespace infoshield
