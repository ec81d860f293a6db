package job

import (
	"fmt"
	"math/rand"
	"strings"

	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// gen produces deterministic synthetic rows with IMDb-like skew.
type gen struct {
	cfg   Config
	rng   *rand.Rand
	sizes map[string]int
}

func newGen(cfg Config) *gen {
	return &gen{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sizes: Sizes(cfg),
	}
}

// movieRef draws a movie id with a bounded head/tail popularity skew: 30%
// of fact rows reference a "popular" head of 5% of the titles, the rest are
// uniform. Unlike a raw Zipf draw, the maximum per-movie degree stays
// bounded, so multi-fact joins through a hub movie amplify (the paper's
// redundancy effect) without exploding combinatorially.
func (g *gen) movieRef() int {
	n := g.sizes["title"]
	if head := n / 20; head > 0 && g.rng.Float64() < 0.3 {
		return g.rng.Intn(head)
	}
	return g.rng.Intn(n)
}

// personRef draws a person id: 20% of credits go to a prolific head of 2%.
func (g *gen) personRef() int {
	n := g.sizes["name"]
	if head := n / 50; head > 0 && g.rng.Float64() < 0.2 {
		return g.rng.Intn(head)
	}
	return g.rng.Intn(n)
}

var syllables = []string{
	"an", "ar", "bel", "ca", "dor", "el", "fan", "gor", "hal", "in", "jo",
	"kar", "lu", "mor", "na", "or", "pel", "qua", "ril", "sa", "tor", "ul",
	"vor", "wen", "xi", "yor", "zan",
}

// capitalize upper-cases the first ASCII letter.
func capitalize(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if 'a' <= b[0] && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

// word builds a pseudo-word of n syllables.
func (g *gen) word(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[g.rng.Intn(len(syllables))])
	}
	return b.String()
}

func (g *gen) titleText(id int) string {
	return fmt.Sprintf("%s %s (%d)", capitalize(g.word(2)), g.word(2+g.rng.Intn(3)), id)
}

func (g *gen) personName(id int) string {
	return fmt.Sprintf("%s, %s #%d", capitalize(g.word(2)), capitalize(g.word(2)), id)
}

// infoText is deliberately wide (20-100 chars): wide attributes are what
// make denormalized single-table results balloon (paper Problem 1).
func (g *gen) infoText() string {
	n := 3 + g.rng.Intn(12)
	words := make([]string, n)
	for i := range words {
		words[i] = g.word(1 + g.rng.Intn(3))
	}
	return strings.Join(words, " ")
}

var countries = []string{"[us]", "[us]", "[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[it]", "[ca]"}
var genders = []string{"m", "m", "f", "f", ""}
var kindNames = []string{"movie", "tv series", "tv movie", "video movie", "tv mini series", "video game", "episode"}
var companyKinds = []string{"production companies", "distributors", "special effects companies", "miscellaneous companies"}
var roleNames = []string{"actor", "actress", "producer", "writer", "cinematographer", "composer",
	"costume designer", "director", "editor", "guest", "miscellaneous crew", "production designer"}
var infoNames = []string{"budget", "bottom 10 rank", "certificates", "color info", "countries",
	"genres", "gross", "languages", "locations", "mpaa", "plot", "rating", "release dates",
	"runtimes", "sound mix", "tech info", "top 250 rank", "trivia", "votes", "taglines"}

func row(vals ...types.Value) types.Row { return vals }

func iv(v int) types.Value    { return types.NewInt(int64(v)) }
func tv(s string) types.Value { return types.NewText(s) }

// fill generates every table. Lookup tables are fixed; entity tables use
// uniform attributes with categorical skew; fact tables use Zipf references.
func (g *gen) fill(tables map[string]*storage.Table) error {
	ins := func(name string, r types.Row) error {
		if err := tables[name].Insert(r); err != nil {
			return fmt.Errorf("job: insert into %s: %w", name, err)
		}
		return nil
	}

	for i, k := range kindNames {
		if err := ins("kind_type", row(iv(i), tv(k))); err != nil {
			return err
		}
	}
	for i, k := range companyKinds {
		if err := ins("company_type", row(iv(i), tv(k))); err != nil {
			return err
		}
	}
	for i, r := range roleNames {
		if err := ins("role_type", row(iv(i), tv(r))); err != nil {
			return err
		}
	}
	for i, inf := range infoNames {
		if err := ins("info_type", row(iv(i), tv(inf))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["keyword"]; i++ {
		kw := g.word(2 + g.rng.Intn(2))
		if i%37 == 0 {
			kw = "sequel-" + kw // a recognizable selective family for filters
		}
		if err := ins("keyword", row(iv(i), tv(kw))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["company_name"]; i++ {
		cc := countries[g.rng.Intn(len(countries))]
		name := capitalize(g.word(2)) + " " + []string{"Pictures", "Films", "Studio", "Entertainment", "Productions"}[g.rng.Intn(5)]
		if err := ins("company_name", row(iv(i), tv(name), tv(cc))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["title"]; i++ {
		year := 1930 + g.rng.Intn(95) // 1930..2024, uniform
		kind := g.rng.Intn(nKindType)
		if g.rng.Float64() < 0.55 {
			kind = 0 // most titles are movies
		}
		if err := ins("title", row(iv(i), tv(g.titleText(i)), iv(year), iv(kind))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["name"]; i++ {
		if err := ins("name", row(iv(i), tv(g.personName(i)), tv(genders[g.rng.Intn(len(genders))]))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["movie_companies"]; i++ {
		movie := g.movieRef()
		company := g.rng.Intn(g.sizes["company_name"])
		ctype := g.rng.Intn(nCompanyType)
		note := ""
		if g.rng.Float64() < 0.3 {
			note = "(" + g.word(2) + ")"
		}
		if err := ins("movie_companies", row(iv(i), iv(movie), iv(company), iv(ctype), tv(note))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["cast_info"]; i++ {
		movie := g.movieRef()
		person := g.personRef()
		role := g.rng.Intn(nRoleType)
		note := ""
		if g.rng.Float64() < 0.2 {
			note = "(as " + g.word(2) + ")"
		}
		if err := ins("cast_info", row(iv(i), iv(person), iv(movie), iv(role), tv(note))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["movie_info"]; i++ {
		movie := g.movieRef()
		itype := g.rng.Intn(nInfoType)
		if err := ins("movie_info", row(iv(i), iv(movie), iv(itype), tv(g.infoText()))); err != nil {
			return err
		}
	}
	for i := 0; i < g.sizes["movie_keyword"]; i++ {
		movie := g.movieRef()
		kw := g.rng.Intn(g.sizes["keyword"])
		if err := ins("movie_keyword", row(iv(i), iv(movie), iv(kw))); err != nil {
			return err
		}
	}
	return nil
}
