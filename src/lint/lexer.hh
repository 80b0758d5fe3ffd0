/**
 * @file
 * Minimal C++ tokenizer for tproc-lint.
 *
 * The linter's rules must never fire on the contents of a string
 * literal or a comment ("panic(replay)" in explorer.cc is data, not
 * a call), so every rule runs over this token stream instead of raw
 * text. The lexer understands exactly as much C++ as that requires:
 * line and block comments, string/char literals with escapes, raw
 * string literals with arbitrary delimiters, preprocessor
 * continuations, identifiers, pp-numbers, and single-character
 * punctuation. It is deliberately not a preprocessor: macros are not
 * expanded and #if blocks are lexed like any other code.
 */

#ifndef TPROC_LINT_LEXER_HH
#define TPROC_LINT_LEXER_HH

#include <string>
#include <string_view>
#include <vector>

namespace tproc::lint
{

enum class TokKind
{
    Identifier,     //!< [A-Za-z_][A-Za-z0-9_]*
    Number,         //!< pp-number (loose: digits, dots, exponents)
    String,         //!< "..." including encoding prefixes
    RawString,      //!< R"delim(...)delim" including prefixes
    CharLit,        //!< '...'
    Comment,        //!< // line or /* block */ (text includes markers)
    Preprocessor,   //!< a whole # directive incl. \-continuations
    Punct,          //!< any other single non-space character
};

struct Token
{
    TokKind kind;
    std::string_view text;  //!< view into LexedFile::content
    int line = 0;           //!< 1-based line of the first character
    int col = 0;            //!< 1-based column of the first character
    int endLine = 0;        //!< 1-based line of the last character
};

/**
 * A lexed source file: the owning content buffer, its physical lines
 * (newline excluded), and the token stream. Tokens and lines are
 * views into `content`; keep the LexedFile alive while using them.
 */
struct LexedFile
{
    std::string path;
    std::string content;
    std::vector<std::string_view> lines;
    std::vector<size_t> lineStarts;     //!< byte offset of each line
    std::vector<Token> tokens;

    /** Byte offset into `content` of 1-based line `line`, 0-based
     *  column `col`. */
    size_t
    bytePos(int line, size_t col) const
    {
        return lineStarts[static_cast<size_t>(line - 1)] + col;
    }

    /** True when byte position `pos` falls inside a string, raw
     *  string, or character literal. The whitespace rules use this
     *  so literal contents never fire them. */
    bool inLiteral(size_t pos) const;
};

/** Lex `content` (as read from `path`). Never fails: unterminated
 *  constructs extend to end of file. */
LexedFile lexFile(std::string path, std::string content);

} // namespace tproc::lint

#endif // TPROC_LINT_LEXER_HH
