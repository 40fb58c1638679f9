//===- Parser.cpp - Generic textual IR parsing --------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/Builder.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokenKind {
  Eof,
  Error,
  /// Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Less,
  Greater,
  Comma,
  Colon,
  Equal,
  Arrow,
  Caret,  // ^bb
  /// Literals and identifiers.
  SsaId,      // %0, %arg3
  StringLit,  // "lo_spn.mul"
  Integer,    // 42, -7
  Float,      // 2.5, -1e9, inf, nan
  BareId,     // true, dense, tensor, f32, i32, index, ...
  ExclaimId,  // !hi_spn.prob, !lo_spn.log
  Question,   // ? (dynamic dimension)
};

struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string Text;
  int Line = 1;
  int Column = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Source) : Source(Source) {}

  Token next() {
    skipWhitespace();
    Token Result;
    Result.Line = Line;
    Result.Column = Column;
    if (Position >= Source.size()) {
      Result.Kind = TokenKind::Eof;
      return Result;
    }
    char C = Source[Position];
    switch (C) {
    case '(':
      return punct(Result, TokenKind::LParen);
    case ')':
      return punct(Result, TokenKind::RParen);
    case '{':
      return punct(Result, TokenKind::LBrace);
    case '}':
      return punct(Result, TokenKind::RBrace);
    case '[':
      return punct(Result, TokenKind::LBracket);
    case ']':
      return punct(Result, TokenKind::RBracket);
    case '<':
      return punct(Result, TokenKind::Less);
    case '>':
      return punct(Result, TokenKind::Greater);
    case ',':
      return punct(Result, TokenKind::Comma);
    case ':':
      return punct(Result, TokenKind::Colon);
    case '=':
      return punct(Result, TokenKind::Equal);
    case '?':
      return punct(Result, TokenKind::Question);
    case '^':
      return lexCaret(Result);
    case '%':
      return lexSsaId(Result);
    case '"':
      return lexString(Result);
    case '!':
      return lexExclaimId(Result);
    case '-':
      if (Position + 1 < Source.size() && Source[Position + 1] == '>') {
        advance();
        advance();
        Result.Kind = TokenKind::Arrow;
        return Result;
      }
      return lexNumber(Result);
    default:
      if (std::isdigit(static_cast<unsigned char>(C)))
        return lexNumber(Result);
      if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
        return lexBareId(Result);
      Result.Kind = TokenKind::Error;
      Result.Text = std::string(1, C);
      return Result;
    }
  }

private:
  void advance() {
    if (Position < Source.size()) {
      if (Source[Position] == '\n') {
        ++Line;
        Column = 1;
      } else {
        ++Column;
      }
      ++Position;
    }
  }

  void skipWhitespace() {
    while (Position < Source.size()) {
      char C = Source[Position];
      if (C == '/' && Position + 1 < Source.size() &&
          Source[Position + 1] == '/') {
        while (Position < Source.size() && Source[Position] != '\n')
          advance();
        continue;
      }
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        return;
      advance();
    }
  }

  Token &punct(Token &Result, TokenKind Kind) {
    Result.Kind = Kind;
    Result.Text = std::string(1, Source[Position]);
    advance();
    return Result;
  }

  Token &lexCaret(Token &Result) {
    advance(); // ^
    std::string Name;
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '_')) {
      Name += Source[Position];
      advance();
    }
    Result.Kind = TokenKind::Caret;
    Result.Text = Name;
    return Result;
  }

  Token &lexSsaId(Token &Result) {
    advance(); // %
    std::string Name = "%";
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '_')) {
      Name += Source[Position];
      advance();
    }
    Result.Kind = TokenKind::SsaId;
    Result.Text = Name;
    return Result;
  }

  Token &lexString(Token &Result) {
    advance(); // opening quote
    std::string Value;
    while (Position < Source.size() && Source[Position] != '"') {
      if (Source[Position] == '\\' && Position + 1 < Source.size()) {
        advance();
        Value += Source[Position];
        advance();
        continue;
      }
      Value += Source[Position];
      advance();
    }
    if (Position >= Source.size()) {
      Result.Kind = TokenKind::Error;
      Result.Text = "unterminated string";
      return Result;
    }
    advance(); // closing quote
    Result.Kind = TokenKind::StringLit;
    Result.Text = Value;
    return Result;
  }

  Token &lexExclaimId(Token &Result) {
    advance(); // !
    std::string Name = "!";
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '_' || Source[Position] == '.')) {
      Name += Source[Position];
      advance();
    }
    Result.Kind = TokenKind::ExclaimId;
    Result.Text = Name;
    return Result;
  }

  Token &lexNumber(Token &Result) {
    std::string Text;
    bool IsFloat = false;
    if (Source[Position] == '-') {
      Text += '-';
      advance();
    }
    // "-inf" / "inf" / "nan" handled through bare id fallthrough.
    if (Position < Source.size() &&
        std::isalpha(static_cast<unsigned char>(Source[Position]))) {
      while (Position < Source.size() &&
             std::isalpha(static_cast<unsigned char>(Source[Position]))) {
        Text += Source[Position];
        advance();
      }
      Result.Kind = TokenKind::Float;
      Result.Text = Text;
      return Result;
    }
    while (Position < Source.size()) {
      char C = Source[Position];
      if (std::isdigit(static_cast<unsigned char>(C))) {
        Text += C;
        advance();
        continue;
      }
      if (C == '.' || C == 'e' || C == 'E') {
        IsFloat = true;
        Text += C;
        advance();
        if ((C == 'e' || C == 'E') && Position < Source.size() &&
            (Source[Position] == '+' || Source[Position] == '-')) {
          Text += Source[Position];
          advance();
        }
        continue;
      }
      break;
    }
    Result.Kind = IsFloat ? TokenKind::Float : TokenKind::Integer;
    Result.Text = Text;
    return Result;
  }

  Token &lexBareId(Token &Result) {
    std::string Name;
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '_' || Source[Position] == '.')) {
      Name += Source[Position];
      advance();
    }
    Result.Kind = TokenKind::BareId;
    Result.Text = Name;
    return Result;
  }

  const std::string &Source;
  size_t Position = 0;
  int Line = 1;
  int Column = 1;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(Context &Ctx, const std::string &Source)
      : Ctx(Ctx), Lex(Source) {
    Current = Lex.next();
  }

  /// Parses exactly one top-level operation followed by EOF.
  Operation *parseTopLevel() {
    Operation *Op = parseOperation(/*EnclosingBlock=*/nullptr);
    if (!Op)
      return nullptr;
    if (Current.Kind != TokenKind::Eof) {
      error("expected end of input after top-level operation");
      Op->dropAllReferences();
      Op->destroy();
      return nullptr;
    }
    return Op;
  }

  const std::string &getError() const { return ErrorMessage; }

private:
  //===--------------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------------===//

  void consume() { Current = Lex.next(); }

  bool consumeIf(TokenKind Kind) {
    if (Current.Kind != Kind)
      return false;
    consume();
    return true;
  }

  bool expect(TokenKind Kind, const char *What) {
    if (Current.Kind == Kind) {
      consume();
      return true;
    }
    error(formatString("expected %s, got '%s'", What,
                       Current.Text.c_str()));
    return false;
  }

  void error(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = formatString("%d:%d: %s", Current.Line,
                                  Current.Column, Message.c_str());
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  Type parseType() {
    if (Current.Kind == TokenKind::ExclaimId) {
      std::string Name = Current.Text;
      consume();
      if (Name == "!hi_spn.prob") {
        TypeStorage Proto;
        Proto.Kind = TypeKind::Probability;
        return Type(Ctx.uniqueType(std::move(Proto)));
      }
      if (Name == "!lo_spn.log") {
        if (!expect(TokenKind::Less, "'<'"))
          return Type();
        Type Element = parseType();
        if (!Element || !expect(TokenKind::Greater, "'>'"))
          return Type();
        TypeStorage Proto;
        Proto.Kind = TypeKind::Log;
        Proto.Element = Element.getImpl();
        return Type(Ctx.uniqueType(std::move(Proto)));
      }
      error("unknown dialect type '" + Name + "'");
      return Type();
    }
    if (Current.Kind != TokenKind::BareId) {
      error("expected a type");
      return Type();
    }
    std::string Name = Current.Text;
    consume();
    if (Name == "f32")
      return FloatType::getF32(Ctx);
    if (Name == "f64")
      return FloatType::getF64(Ctx);
    if (Name == "index")
      return IndexType::get(Ctx);
    if (Name == "none")
      return NoneType::get(Ctx);
    if (Name.size() > 1 && Name[0] == 'i') {
      unsigned Width = 0;
      for (size_t I = 1; I < Name.size(); ++I) {
        if (!std::isdigit(static_cast<unsigned char>(Name[I]))) {
          Width = 0;
          break;
        }
        Width = Width * 10 + static_cast<unsigned>(Name[I] - '0');
      }
      if (Width > 0)
        return IntegerType::get(Ctx, Width);
    }
    if (Name == "tensor" || Name == "memref")
      return parseShapedType(Name == "tensor");
    if (Name == "vector")
      return parseVectorType();
    error("unknown type '" + Name + "'");
    return Type();
  }

  /// Parses `<dims x element>` after tensor/memref. The lexer fuses the
  /// 'x' separators with following digits or type names (e.g. the token
  /// "x26xf64"); splitXSeparator re-splits them.
  Type parseShapedType(bool IsTensor) {
    if (!expect(TokenKind::Less, "'<'"))
      return Type();
    std::vector<int64_t> Shape;
    Type Element;
    for (;;) {
      if (Current.Kind == TokenKind::Question) {
        consume();
        Shape.push_back(TypeStorage::kDynamic);
        if (!splitXSeparator(Shape, Element))
          return Type();
        if (Element)
          break;
        continue;
      }
      if (Current.Kind == TokenKind::Integer) {
        Shape.push_back(std::stoll(Current.Text));
        consume();
        if (!splitXSeparator(Shape, Element))
          return Type();
        if (Element)
          break;
        continue;
      }
      // No more dimensions: the element type follows directly.
      Element = parseType();
      break;
    }
    if (!Element || !expect(TokenKind::Greater, "'>'"))
      return Type();
    TypeStorage Proto;
    Proto.Kind = IsTensor ? TypeKind::Tensor : TypeKind::MemRef;
    Proto.Shape = Shape;
    Proto.Element = Element.getImpl();
    return Type(Ctx.uniqueType(std::move(Proto)));
  }

  /// Processes the bare-id token that must follow a dimension: a run of
  /// `x<digits>` separators possibly ending in an element-type name
  /// ("x", "xf64", "x26xf64", "x26x"). Embedded dimensions are appended
  /// to \p Shape; a trailing type name is parsed into \p Element.
  /// Returns false on malformed input.
  bool splitXSeparator(std::vector<int64_t> &Shape, Type &Element) {
    if (Current.Kind != TokenKind::BareId || Current.Text.empty() ||
        Current.Text[0] != 'x') {
      error("expected 'x' after dimension");
      return false;
    }
    std::string Text = Current.Text;
    size_t Pos = 0;
    for (;;) {
      if (Pos >= Text.size()) {
        // Token fully consumed as separators; the next token carries the
        // next dimension or the element type.
        consume();
        return true;
      }
      if (Text[Pos] != 'x') {
        // Remainder is the element-type name; re-point the current token
        // at it and parse.
        Current.Text = Text.substr(Pos);
        Element = parseType();
        return static_cast<bool>(Element);
      }
      ++Pos; // skip the separator
      if (Pos < Text.size() &&
          std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
        int64_t Dim = 0;
        while (Pos < Text.size() &&
               std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
          Dim = Dim * 10 + (Text[Pos] - '0');
          ++Pos;
        }
        Shape.push_back(Dim);
      }
    }
  }

  Type parseVectorType() {
    if (!expect(TokenKind::Less, "'<'"))
      return Type();
    if (Current.Kind != TokenKind::Integer) {
      error("expected vector lane count");
      return Type();
    }
    unsigned Lanes = static_cast<unsigned>(std::stoul(Current.Text));
    consume();
    std::vector<int64_t> ExtraDims;
    Type Element;
    if (!splitXSeparator(ExtraDims, Element))
      return Type();
    if (!Element)
      Element = parseType();
    if (!Element || !ExtraDims.empty() ||
        !expect(TokenKind::Greater, "'>'"))
      return Type();
    return VectorType::get(Ctx, Lanes, Element);
  }

  //===--------------------------------------------------------------------===//
  // Attributes
  //===--------------------------------------------------------------------===//

  Attribute parseAttribute() {
    switch (Current.Kind) {
    case TokenKind::Integer: {
      int64_t Value = std::stoll(Current.Text);
      consume();
      return IntAttr::get(Ctx, Value);
    }
    case TokenKind::Float: {
      double Value = parseFloatText(Current.Text);
      consume();
      return FloatAttr::get(Ctx, Value);
    }
    case TokenKind::StringLit: {
      std::string Value = Current.Text;
      consume();
      return StringAttr::get(Ctx, std::move(Value));
    }
    case TokenKind::LBracket: {
      consume();
      std::vector<Attribute> Elements;
      if (Current.Kind != TokenKind::RBracket) {
        do {
          Attribute Element = parseAttribute();
          if (!Element)
            return Attribute();
          Elements.push_back(Element);
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RBracket, "']'"))
        return Attribute();
      return ArrayAttr::get(Ctx, Elements);
    }
    case TokenKind::BareId: {
      std::string Name = Current.Text;
      if (Name == "true" || Name == "false") {
        consume();
        return BoolAttr::get(Ctx, Name == "true");
      }
      if (Name == "unit") {
        consume();
        return UnitAttr::get(Ctx);
      }
      if (Name == "nan" || Name == "inf") {
        consume();
        return FloatAttr::get(Ctx, parseFloatText(Name));
      }
      if (Name == "dense")
        return parseDenseAttribute();
      // Otherwise: a type attribute (f32, tensor<...>, ...).
      Type Ty = parseType();
      return Ty ? Attribute(TypeAttr::get(Ctx, Ty)) : Attribute();
    }
    case TokenKind::ExclaimId: {
      Type Ty = parseType();
      return Ty ? Attribute(TypeAttr::get(Ctx, Ty)) : Attribute();
    }
    default:
      error("expected an attribute");
      return Attribute();
    }
  }

  Attribute parseDenseAttribute() {
    consume(); // dense
    if (!expect(TokenKind::Less, "'<'") ||
        !expect(TokenKind::LBracket, "'['"))
      return Attribute();
    std::vector<double> Values;
    if (Current.Kind != TokenKind::RBracket) {
      do {
        if (Current.Kind == TokenKind::Integer ||
            Current.Kind == TokenKind::Float) {
          Values.push_back(parseFloatText(Current.Text));
          consume();
        } else {
          error("expected a number in dense attribute");
          return Attribute();
        }
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RBracket, "']'") ||
        !expect(TokenKind::Greater, "'>'"))
      return Attribute();
    return DenseF64Attr::get(Ctx, std::move(Values));
  }

  static double parseFloatText(const std::string &Text) {
    if (Text == "nan" || Text == "-nan")
      return std::numeric_limits<double>::quiet_NaN();
    if (Text == "inf")
      return std::numeric_limits<double>::infinity();
    if (Text == "-inf")
      return -std::numeric_limits<double>::infinity();
    return std::stod(Text);
  }

  //===--------------------------------------------------------------------===//
  // Operations, regions, blocks
  //===--------------------------------------------------------------------===//

  Operation *parseOperation(Block *EnclosingBlock) {
    // Optional result list.
    std::vector<std::string> ResultNames;
    if (Current.Kind == TokenKind::SsaId) {
      do {
        ResultNames.push_back(Current.Text);
        consume();
      } while (consumeIf(TokenKind::Comma));
      if (!expect(TokenKind::Equal, "'='"))
        return nullptr;
    }

    if (Current.Kind != TokenKind::StringLit) {
      error("expected operation name string");
      return nullptr;
    }
    OperationState State(Ctx.internString(Current.Text));
    consume();

    // Operand list.
    if (!expect(TokenKind::LParen, "'('"))
      return nullptr;
    std::vector<std::string> OperandNames;
    if (Current.Kind == TokenKind::SsaId) {
      do {
        if (Current.Kind != TokenKind::SsaId) {
          error("expected SSA operand");
          return nullptr;
        }
        OperandNames.push_back(Current.Text);
        consume();
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "')'"))
      return nullptr;
    for (const std::string &Name : OperandNames) {
      auto It = ValueByName.find(Name);
      if (It == ValueByName.end()) {
        error("use of undefined value '" + Name + "'");
        return nullptr;
      }
      State.addOperand(It->second);
    }

    // Optional regions: '(' region (',' region)* ')'.
    bool HasRegions = Current.Kind == TokenKind::LParen;
    std::vector<std::string> PendingRegions; // re-parsed below
    Operation *Op = nullptr;

    // We must create the op before filling regions (regions belong to
    // it), but the type signature comes last. Parse regions into a
    // deferred representation instead: since the grammar is LL(1) and
    // regions contain full ops, simplest is to create the op after
    // parsing everything. To do that we parse regions into detached
    // blocks first.
    std::vector<Block *> RegionBlocks;
    if (HasRegions) {
      consume(); // (
      do {
        auto TheBlock = parseDetachedRegionBlock();
        if (!TheBlock)
          return nullptr;
        RegionBlocks.push_back(TheBlock);
        ++State.NumRegions;
      } while (consumeIf(TokenKind::Comma));
      if (!expect(TokenKind::RParen, "')' after regions"))
        return nullptr;
    }

    // Optional attribute dictionary.
    if (consumeIf(TokenKind::LBrace)) {
      if (Current.Kind != TokenKind::RBrace) {
        do {
          if (Current.Kind != TokenKind::BareId &&
              Current.Kind != TokenKind::StringLit) {
            error("expected attribute name");
            return nullptr;
          }
          std::string Name = Current.Text;
          consume();
          if (!expect(TokenKind::Equal, "'='"))
            return nullptr;
          Attribute Value = parseAttribute();
          if (!Value)
            return nullptr;
          State.addAttribute(Ctx.internString(Name), Value);
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RBrace, "'}'"))
        return nullptr;
    }

    // Type signature: ':' '(' operand types ')' '->' results.
    if (!expect(TokenKind::Colon, "':'") ||
        !expect(TokenKind::LParen, "'('"))
      return nullptr;
    std::vector<Type> OperandTypes;
    if (Current.Kind != TokenKind::RParen) {
      do {
        Type Ty = parseType();
        if (!Ty)
          return nullptr;
        OperandTypes.push_back(Ty);
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "')'") ||
        !expect(TokenKind::Arrow, "'->'"))
      return nullptr;
    if (OperandTypes.size() != State.Operands.size()) {
      error("operand type count mismatch");
      return nullptr;
    }
    for (size_t I = 0; I < OperandTypes.size(); ++I)
      if (State.Operands[I].getType() != OperandTypes[I]) {
        error(formatString("operand %zu type mismatch", I));
        return nullptr;
      }

    if (consumeIf(TokenKind::LParen)) {
      if (Current.Kind != TokenKind::RParen) {
        do {
          Type Ty = parseType();
          if (!Ty)
            return nullptr;
          State.addResultType(Ty);
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        return nullptr;
    } else {
      Type Ty = parseType();
      if (!Ty)
        return nullptr;
      State.addResultType(Ty);
    }
    if (State.ResultTypes.size() != ResultNames.size()) {
      error("result name/type count mismatch");
      return nullptr;
    }

    Op = Operation::create(Ctx, State);
    // Adopt the parsed region blocks.
    for (unsigned R = 0; R < RegionBlocks.size(); ++R)
      adoptBlock(Op->getRegion(R), RegionBlocks[R]);
    // Register result names.
    for (size_t I = 0; I < ResultNames.size(); ++I)
      ValueByName[ResultNames[I]] = Op->getResult(I);

    if (EnclosingBlock)
      EnclosingBlock->push_back(Op);
    return Op;
  }

  /// Parses `{ [^bb(args):] op* }` into a detached block.
  Block *parseDetachedRegionBlock() {
    if (!expect(TokenKind::LBrace, "'{' starting a region"))
      return nullptr;
    Block *TheBlock = Block::create(Ctx);
    if (Current.Kind == TokenKind::Caret) {
      consume();
      if (!expect(TokenKind::LParen, "'('"))
        return nullptr;
      if (Current.Kind != TokenKind::RParen) {
        do {
          if (Current.Kind != TokenKind::SsaId) {
            error("expected block argument name");
            return nullptr;
          }
          std::string Name = Current.Text;
          consume();
          if (!expect(TokenKind::Colon, "':'"))
            return nullptr;
          Type Ty = parseType();
          if (!Ty)
            return nullptr;
          ValueByName[Name] = TheBlock->addArgument(Ty);
        } while (consumeIf(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'") ||
          !expect(TokenKind::Colon, "':' after block header"))
        return nullptr;
    }
    while (Current.Kind != TokenKind::RBrace) {
      if (Current.Kind == TokenKind::Eof) {
        error("unterminated region");
        return nullptr;
      }
      if (!parseOperation(TheBlock))
        return nullptr;
    }
    consume(); // }
    return TheBlock;
  }

  /// Moves the contents of \p Source into a fresh block of \p TheRegion.
  void adoptBlock(Region &TheRegion, Block *Source) {
    Block &Target = TheRegion.emplaceBlock();
    // Move arguments: recreate them and RAUW the parsed placeholders.
    for (unsigned I = 0; I < Source->getNumArguments(); ++I) {
      Value OldArg = Source->getArgument(I);
      Value NewArg = Target.addArgument(OldArg.getType());
      OldArg.replaceAllUsesWith(NewArg);
      // Keep the name map pointing at the adopted argument.
      for (auto &Entry : ValueByName)
        if (Entry.second == OldArg)
          Entry.second = NewArg;
    }
    while (!Source->empty()) {
      Operation *Op = Source->front();
      Op->remove();
      Target.push_back(Op);
    }
  }

  Context &Ctx;
  Lexer Lex;
  Token Current;
  std::string ErrorMessage;
  std::unordered_map<std::string, Value> ValueByName;
};

} // namespace

Expected<OwningOpRef<ModuleOp>>
spnc::ir::parseSourceString(Context &Ctx, const std::string &Source) {
  registerBuiltinDialect(Ctx);
  Parser TheParser(Ctx, Source);
  Operation *Op = TheParser.parseTopLevel();
  if (!Op)
    return makeError(TheParser.getError().empty()
                         ? "parse error"
                         : TheParser.getError());
  if (!isa_op<ModuleOp>(Op)) {
    Op->dropAllReferences();
    Op->destroy();
    return makeError("top-level operation must be builtin.module");
  }
  return OwningOpRef<ModuleOp>(ModuleOp(Op));
}
