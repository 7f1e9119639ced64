package kernelir

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokNumber
	tokLBracket // [
	tokRBracket // ]
	tokLParen   // (
	tokRParen   // )
	tokComma    // ,
	tokAssign   // =
	tokAccum    // +=
	tokAt       // @
	tokOp       // + - * / & | ^ << >>
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "end of line"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokAssign:
		return "'='"
	case tokAccum:
		return "'+='"
	case tokAt:
		return "'@'"
	case tokOp:
		return "operator"
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	line int
}

// lexInto splits source text into tokens, appending them to toks.
// Comments run from '#' to end of line. Newlines are significant
// (statement separators) and consecutive blank lines collapse into one
// tokNewline. Parse passes a recycled buffer, so the token slice is
// reused across calls (tokens are never retained past the parse: AST
// strings are substrings of src, not of the tokens).
func lexInto(toks []token, src string) ([]token, error) {
	line := 1
	emit := func(k tokKind, text string) {
		// Collapse consecutive newlines.
		if k == tokNewline && (len(toks) == 0 || toks[len(toks)-1].kind == tokNewline) {
			return
		}
		toks = append(toks, token{kind: k, text: text, line: line})
	}
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '\n':
			emit(tokNewline, "\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			emit(tokIdent, src[i:j])
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < n && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			emit(tokNumber, src[i:j])
			i = j
		case c == '[':
			emit(tokLBracket, "[")
			i++
		case c == ']':
			emit(tokRBracket, "]")
			i++
		case c == '(':
			emit(tokLParen, "(")
			i++
		case c == ')':
			emit(tokRParen, ")")
			i++
		case c == ',':
			emit(tokComma, ",")
			i++
		case c == '@':
			emit(tokAt, "@")
			i++
		case c == '=':
			emit(tokAssign, "=")
			i++
		case c == '+':
			if i+1 < n && src[i+1] == '=' {
				emit(tokAccum, "+=")
				i += 2
			} else {
				emit(tokOp, "+")
				i++
			}
		case strings.ContainsRune("-*/&|^", rune(c)):
			emit(tokOp, string(c))
			i++
		case c == '<' || c == '>':
			if i+1 < n && src[i+1] == c {
				emit(tokOp, src[i:i+2])
				i += 2
			} else {
				return nil, fmt.Errorf("line %d: unexpected character %q (only << and >> shifts supported)", line, c)
			}
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
		}
	}
	emit(tokNewline, "\n")
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
