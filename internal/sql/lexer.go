package sql

import (
	"fmt"
	"strings"
)

// Lexer turns SQL text into tokens. It is position-tracking for error
// messages and skips -- line comments and /* */ block comments.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9')
}

func (l *Lexer) lexIdent(start int) Token {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !isFloat:
			isFloat = true
			l.pos++
		case (c == 'e' || c == 'E') && l.pos+1 < len(l.src):
			// exponent: e[+-]?digits
			next := l.src[l.pos+1]
			if next == '+' || next == '-' {
				if l.pos+2 >= len(l.src) || l.src[l.pos+2] < '0' || l.src[l.pos+2] > '9' {
					return Token{}, fmt.Errorf("sql: malformed number at offset %d", start)
				}
				l.pos += 2
			} else if next >= '0' && next <= '9' {
				l.pos++
			} else {
				goto done
			}
			isFloat = true
		default:
			goto done
		}
	}
done:
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Pos: start}, nil
}

// lexString reads a '…' literal. Its text is a slice of the source
// unless it holds an escaped (doubled) quote: only then is it copied.
func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	var esc []byte
	from := l.pos
	for {
		i := strings.IndexByte(l.src[l.pos:], '\'')
		if i < 0 {
			return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		}
		l.pos += i
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // '' escape
			esc = append(esc, l.src[from:l.pos+1]...)
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if esc != nil {
			text = string(append(esc, text...))
		}
		l.pos++ // closing quote
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
}

func (l *Lexer) lexSymbol(start int) (Token, error) {
	if l.pos+1 < len(l.src) {
		switch two := l.src[l.pos : l.pos+2]; two {
		case "<=", ">=", "<>", "!=", "||":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
		l.pos++
		return Token{Kind: TokSymbol, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

// maxTokenHint caps the tokens Tokenize allocates before it has read
// any: 32 Ki tokens of 32 bytes.
const maxTokenHint = 1 << 15

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	// Most tokens take a byte and a separator, so one allocation holds
	// a statement's tokens; the cap (1 MiB of tokens) keeps a long
	// literal from costing 16x its own size before parsing, and a
	// statement with more tokens grows the slice as it goes.
	out := make([]Token, 0, min(len(src)/2+1, maxTokenHint))
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
