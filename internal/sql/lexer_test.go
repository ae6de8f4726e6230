package sql

import (
	"strings"
	"testing"
)

func TestLexBasic(t *testing.T) {
	toks, err := Tokenize("SELECT a, b2 FROM t WHERE x >= 1.5 AND y = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokSymbol, TokIdent, TokKeyword,
		TokIdent, TokKeyword, TokIdent, TokSymbol, TokFloat, TokKeyword,
		TokIdent, TokSymbol, TokString, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v (kind %d), want kind %d", i, toks[i], toks[i].Kind, k)
		}
	}
	if toks[13].Text != "it's" {
		t.Errorf("string escape: got %q", toks[13].Text)
	}
	if toks[8].Text != ">=" {
		t.Errorf("two-char op: got %q", toks[8].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Tokenize("SELECT -- line comment\n 1 /* block\ncomment */ + 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 { // SELECT 1 + 2 EOF
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]TokenKind{
		"42":     TokInt,
		"3.14":   TokFloat,
		"1e5":    TokFloat,
		"2.5e-3": TokFloat,
		"7E+2":   TokFloat,
	}
	for src, kind := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if toks[0].Kind != kind || toks[0].Text != src {
			t.Errorf("%q -> %v (kind %d), want kind %d", src, toks[0], toks[0].Kind, kind)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestLexKeywordCase(t *testing.T) {
	toks, err := Tokenize("select From WhErE")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.Kind != TokKeyword {
			t.Errorf("%v not a keyword", tok)
		}
	}
	if toks[0].Text != "SELECT" {
		t.Errorf("keyword not uppercased: %q", toks[0].Text)
	}
}

// TestLexSymbols: each two-character operator is one token, and a
// first byte that starts none stays a token of its own.
func TestLexSymbols(t *testing.T) {
	toks, err := Tokenize("a<=b>=c<>d!=e||f<g>h=i<-j")
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, tok := range toks {
		if tok.Kind == TokSymbol {
			syms = append(syms, tok.Text)
		}
	}
	if got := strings.Join(syms, " "); got != "<= >= <> != || < > = < -" {
		t.Fatalf("symbols %q", got)
	}
	if _, err := Tokenize("a ! b"); err == nil {
		t.Error("a lone ! should fail")
	}
}

// TestTokenizeBoundsItsFirstAllocation: a long literal lexes to a few
// tokens, so the slice Tokenize sizes before reading stays within
// maxTokenHint however long the statement is.
func TestTokenizeBoundsItsFirstAllocation(t *testing.T) {
	toks, err := Tokenize("'" + strings.Repeat("x", 1<<20) + "'")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || cap(toks) > maxTokenHint {
		t.Fatalf("%d tokens in a slice of capacity %d, want 2 within %d", len(toks), cap(toks), maxTokenHint)
	}
}
