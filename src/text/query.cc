#include "text/query.h"

#include <cctype>
#include <utility>
#include <vector>

#include "instance/value.h"
#include "text/sexpr.h"

namespace mm2::text {

using instance::Value;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;

namespace {

class QueryParser {
 public:
  explicit QueryParser(std::string_view text) : text_(text) {}

  Result<ConjunctiveQuery> Parse() {
    ConjunctiveQuery query;
    MM2_ASSIGN_OR_RETURN(query.head, ParseAtom());
    SkipSpace();
    if (!Consume(":-")) {
      return Error("expected ':-' after the head atom");
    }
    while (true) {
      MM2_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      query.body.push_back(std::move(atom));
      SkipSpace();
      if (!Consume(",")) break;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing input after query");
    }
    MM2_RETURN_IF_ERROR(query.Validate());
    return query;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  // The identifier at the cursor, empty when there is none.
  std::string_view ScanIdentifier() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '$')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  Result<std::string> ParseIdentifier() {
    std::string_view name = ScanIdentifier();
    if (name.empty()) return Error("expected an identifier");
    return std::string(name);
  }

  Result<Atom> ParseAtom() {
    Atom atom;
    MM2_ASSIGN_OR_RETURN(atom.relation, ParseIdentifier());
    if (!Consume("(")) return Error("expected '(' after relation name");
    SkipSpace();
    if (Consume(")")) return atom;  // nullary atoms are legal syntax
    while (true) {
      MM2_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.terms.push_back(std::move(term));
      if (Consume(")")) return atom;
      if (!Consume(",")) return Error("expected ',' or ')' in atom");
    }
  }

  Result<Term> ParseTerm() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of query");
    char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
        s += text_[pos_++];
      }
      if (pos_ >= text_.size()) return Error("unterminated string");
      ++pos_;
      return Term::Const(Value::String(std::move(s)));
    }
    if (c == '#') {
      if (Consume("#t")) return Term::Const(Value::Bool(true));
      if (Consume("#f")) return Term::Const(Value::Bool(false));
      return Error("expected #t or #f");
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+') {
      std::size_t start = pos_;
      if (c == '-' || c == '+') ++pos_;
      while (pos_ < text_.size()) {
        char d = text_[pos_];
        bool exponent_sign = (d == '-' || d == '+') &&
                             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E');
        if (!std::isdigit(static_cast<unsigned char>(d)) && d != '.' &&
            d != 'e' && d != 'E' && !exponent_sign) {
          break;
        }
        ++pos_;
      }
      Result<Value> number =
          ParseScalarToken(text_.substr(start, pos_ - start));
      if (!number.ok()) return Error(number.status().message());
      return Term::Const(std::move(*number));
    }
    std::string_view name = ScanIdentifier();
    if (name.empty()) return Error("expected an identifier");
    if (name == "null") return Term::Const(Value::Null());
    return Term::Var(std::string(name));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<ConjunctiveQuery> ParseQuery(std::string_view text) {
  return QueryParser(text).Parse();
}

std::string QueryToText(const ConjunctiveQuery& query) {
  std::string out = query.head.ToString() + " :- ";
  for (std::size_t i = 0; i < query.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += query.body[i].ToString();
  }
  return out;
}

}  // namespace mm2::text
