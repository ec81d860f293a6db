package job

import "fmt"

// Query is one benchmark query template instance.
type Query struct {
	// Name matches the JOB instance naming the paper reports (1b, 2a, ...).
	Name string
	// SQL is the single-table form; annotate with RESULTDB or pass through
	// Session.QueryResultDB for the subdatabase forms.
	SQL string
	// Cyclic marks templates whose join graph is JG-cyclic (they exercise
	// the folding path of Algorithm 4).
	Cyclic bool
}

// Table1Queries lists the ten instances the paper details in Tables 1 and 3.
var Table1Queries = []string{"3c", "4a", "9c", "11c", "16b", "18c", "22c", "25b", "28c", "33c"}

// Queries returns the 33 template instances in Figure 8 / Table 2 order.
// Aliases follow JOB conventions: t=title, mc=movie_companies,
// cn=company_name, ct=company_type, ci=cast_info, n=name, rt=role_type,
// mi=movie_info, it=info_type, mk=movie_keyword, k=keyword, kt=kind_type.
func Queries() []Query {
	return queries
}

// QueryByName returns the named template.
func QueryByName(name string) (Query, error) {
	for _, q := range queries {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("job: unknown query %q", name)
}

var queries = []Query{
	{Name: "1b", SQL: `
SELECT mc.note, t.title, t.production_year
FROM company_type AS ct, movie_companies AS mc, title AS t
WHERE ct.kind = 'production companies'
  AND ct.id = mc.company_type_id
  AND mc.movie_id = t.id
  AND t.production_year BETWEEN 2005 AND 2010`},

	{Name: "2a", SQL: `
SELECT t.title
FROM company_name AS cn, movie_companies AS mc, title AS t, movie_keyword AS mk, keyword AS k
WHERE cn.country_code = '[de]'
  AND cn.id = mc.company_id
  AND mc.movie_id = t.id
  AND t.id = mk.movie_id
  AND mk.keyword_id = k.id
  AND k.keyword LIKE 'sequel-%'`},

	{Name: "3c", SQL: `
SELECT t.title
FROM keyword AS k, movie_keyword AS mk, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND mk.keyword_id = k.id
  AND mk.movie_id = t.id
  AND t.production_year > 1990`},

	{Name: "4a", SQL: `
SELECT mi.info, t.title
FROM info_type AS it, movie_info AS mi, title AS t
WHERE it.id = 11
  AND it.id = mi.info_type_id
  AND mi.movie_id = t.id
  AND t.production_year > 2005`},

	{Name: "5c", SQL: `
SELECT t.title
FROM company_type AS ct, movie_companies AS mc, title AS t
WHERE ct.kind = 'production companies'
  AND mc.company_type_id = ct.id
  AND mc.note LIKE '(%'
  AND t.id = mc.movie_id
  AND t.production_year > 2000`},

	{Name: "6a", Cyclic: true, SQL: `
SELECT k.keyword, n.name, t.title
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND n.gender = 'm'
  AND ci.movie_id = t.id
  AND mk.movie_id = t.id
  AND ci.movie_id = mk.movie_id
  AND mk.keyword_id = k.id
  AND ci.person_id = n.id
  AND t.production_year > 2010`},

	{Name: "7a", SQL: `
SELECT n.name, t.title
FROM name AS n, cast_info AS ci, title AS t, movie_info AS mi, info_type AS it
WHERE it.id = 5
  AND mi.info_type_id = it.id
  AND t.id = mi.movie_id
  AND ci.movie_id = t.id
  AND n.id = ci.person_id
  AND n.gender = 'f'
  AND t.production_year BETWEEN 1980 AND 1995`},

	{Name: "8a", SQL: `
SELECT ci.note, n.name, t.title
FROM cast_info AS ci, name AS n, role_type AS rt, title AS t
WHERE rt.role = 'writer'
  AND ci.role_id = rt.id
  AND ci.note LIKE '(as%'
  AND ci.person_id = n.id
  AND ci.movie_id = t.id`},

	{Name: "9c", SQL: `
SELECT n.name, t.title, ci.note
FROM cast_info AS ci, company_name AS cn, movie_companies AS mc, name AS n, role_type AS rt, title AS t
WHERE rt.role = 'actress'
  AND cn.country_code = '[us]'
  AND ci.movie_id = t.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND ci.role_id = rt.id
  AND ci.person_id = n.id
  AND t.production_year > 2005`},

	{Name: "10c", SQL: `
SELECT ci.note, t.title
FROM cast_info AS ci, company_name AS cn, company_type AS ct, movie_companies AS mc, role_type AS rt, title AS t
WHERE ct.kind = 'production companies'
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND cn.country_code = '[us]'
  AND mc.movie_id = t.id
  AND ci.movie_id = t.id
  AND ci.role_id = rt.id
  AND rt.role = 'producer'`},

	{Name: "11c", SQL: `
SELECT cn.name
FROM company_name AS cn, company_type AS ct, movie_companies AS mc, title AS t
WHERE cn.country_code = '[de]'
  AND ct.id = mc.company_type_id
  AND ct.kind = 'distributors'
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND t.production_year > 1995`},

	{Name: "12a", SQL: `
SELECT cn.name, mi.info, t.title
FROM company_name AS cn, company_type AS ct, info_type AS it, movie_companies AS mc, movie_info AS mi, title AS t
WHERE cn.country_code = '[us]'
  AND ct.kind = 'production companies'
  AND it.id = 3
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id
  AND t.production_year BETWEEN 2000 AND 2010`},

	{Name: "13b", SQL: `
SELECT cn.name, mi.info, t.title
FROM company_name AS cn, company_type AS ct, info_type AS it, movie_companies AS mc, movie_info AS mi, title AS t
WHERE cn.country_code = '[de]'
  AND ct.kind = 'distributors'
  AND it.id = 7
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id`},

	{Name: "14a", Cyclic: true, SQL: `
SELECT mi.info, t.title
FROM info_type AS it, keyword AS k, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE it.id = 16
  AND k.keyword LIKE 'sequel-%'
  AND mi.info_type_id = it.id
  AND mi.movie_id = t.id
  AND mk.movie_id = t.id
  AND mi.movie_id = mk.movie_id
  AND mk.keyword_id = k.id`},

	{Name: "15d", SQL: `
SELECT mi.info, t.title
FROM company_name AS cn, info_type AS it, movie_companies AS mc, movie_info AS mi, title AS t
WHERE cn.country_code = '[us]'
  AND it.id = 10
  AND mi.info_type_id = it.id
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id
  AND t.production_year > 1990`},

	{Name: "16b", SQL: `
SELECT k.keyword, n.name, t.title
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
WHERE ci.movie_id = t.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ci.person_id = n.id
  AND t.production_year > 1980`},

	{Name: "17a", SQL: `
SELECT n.name
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND mk.keyword_id = k.id
  AND mk.movie_id = t.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND n.gender = 'm'`},

	{Name: "18c", SQL: `
SELECT mi.info, t.title
FROM cast_info AS ci, info_type AS it, movie_info AS mi, role_type AS rt, title AS t
WHERE rt.role = 'producer'
  AND ci.role_id = rt.id
  AND it.id = 7
  AND mi.info_type_id = it.id
  AND ci.movie_id = t.id
  AND mi.movie_id = t.id`},

	{Name: "19a", SQL: `
SELECT n.name, t.title
FROM cast_info AS ci, info_type AS it, movie_info AS mi, name AS n, role_type AS rt, title AS t
WHERE it.id = 2
  AND rt.role = 'actress'
  AND n.gender = 'f'
  AND mi.info_type_id = it.id
  AND ci.role_id = rt.id
  AND ci.person_id = n.id
  AND ci.movie_id = t.id
  AND mi.movie_id = t.id
  AND t.production_year BETWEEN 2000 AND 2015`},

	{Name: "20b", SQL: `
SELECT t.title
FROM cast_info AS ci, kind_type AS kt, keyword AS k, movie_keyword AS mk, title AS t
WHERE kt.kind = 'movie'
  AND kt.id = t.kind_id
  AND k.keyword LIKE 'sequel-%'
  AND mk.keyword_id = k.id
  AND mk.movie_id = t.id
  AND ci.movie_id = t.id
  AND t.production_year > 2000`},

	{Name: "21a", Cyclic: true, SQL: `
SELECT cn.name, mc.note, t.title
FROM company_name AS cn, company_type AS ct, keyword AS k, movie_companies AS mc, movie_keyword AS mk, title AS t
WHERE cn.country_code = '[de]'
  AND ct.kind = 'production companies'
  AND k.keyword LIKE 'sequel-%'
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND mk.movie_id = t.id
  AND mc.movie_id = mk.movie_id
  AND mk.keyword_id = k.id`},

	{Name: "22c", SQL: `
SELECT cn.name, mi.info, t.title
FROM company_name AS cn, company_type AS ct, info_type AS it, keyword AS k, movie_companies AS mc, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE cn.country_code = '[us]'
  AND ct.kind = 'production companies'
  AND it.id = 10
  AND k.keyword LIKE 'sequel-%'
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mi.info_type_id = it.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id
  AND mk.movie_id = t.id
  AND t.production_year > 1990`},

	{Name: "23a", Cyclic: true, SQL: `
SELECT kt.kind, t.title
FROM info_type AS it, kind_type AS kt, movie_info AS mi, movie_keyword AS mk, title AS t
WHERE kt.kind = 'movie'
  AND kt.id = t.kind_id
  AND it.id = 18
  AND mi.info_type_id = it.id
  AND mi.movie_id = t.id
  AND mk.movie_id = t.id
  AND mi.movie_id = mk.movie_id
  AND t.production_year > 2010`},

	{Name: "24a", SQL: `
SELECT ci.note, n.name, t.title
FROM cast_info AS ci, keyword AS k, movie_keyword AS mk, name AS n, role_type AS rt, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND rt.role = 'actor'
  AND ci.role_id = rt.id
  AND ci.person_id = n.id
  AND ci.movie_id = t.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND n.gender = 'm'`},

	{Name: "25b", SQL: `
SELECT mi.info, n.name, t.title
FROM cast_info AS ci, info_type AS it, keyword AS k, movie_info AS mi, movie_keyword AS mk, name AS n, title AS t
WHERE it.id = 19
  AND k.keyword LIKE 'sequel-%'
  AND mi.info_type_id = it.id
  AND mk.keyword_id = k.id
  AND ci.movie_id = t.id
  AND mi.movie_id = t.id
  AND mk.movie_id = t.id
  AND ci.person_id = n.id
  AND t.production_year > 2015`},

	{Name: "26a", SQL: `
SELECT ci.note, n.name, t.title
FROM cast_info AS ci, kind_type AS kt, name AS n, role_type AS rt, title AS t
WHERE kt.kind = 'tv series'
  AND kt.id = t.kind_id
  AND rt.role = 'director'
  AND ci.role_id = rt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id`},

	{Name: "27a", SQL: `
SELECT cn.name, mi.info, n.name
FROM cast_info AS ci, company_name AS cn, info_type AS it, movie_companies AS mc, movie_info AS mi, name AS n, title AS t
WHERE cn.country_code = '[gb]'
  AND it.id = 4
  AND mi.info_type_id = it.id
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND mi.movie_id = t.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND n.gender = 'f'`},

	{Name: "28c", SQL: `
SELECT ci.note, mi.info, t.title
FROM cast_info AS ci, info_type AS it, kind_type AS kt, movie_info AS mi, title AS t
WHERE kt.kind = 'movie'
  AND kt.id = t.kind_id
  AND it.id = 12
  AND mi.info_type_id = it.id
  AND mi.movie_id = t.id
  AND ci.movie_id = t.id
  AND ci.note LIKE '(as%'`},

	{Name: "29a", Cyclic: true, SQL: `
SELECT ci.note, n.name, t.title
FROM cast_info AS ci, movie_keyword AS mk, keyword AS k, name AS n, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND mk.keyword_id = k.id
  AND ci.movie_id = t.id
  AND mk.movie_id = t.id
  AND ci.movie_id = mk.movie_id
  AND ci.person_id = n.id
  AND n.gender = 'f'
  AND t.production_year > 2005`},

	{Name: "30c", SQL: `
SELECT mi.info, n.name, t.title
FROM cast_info AS ci, info_type AS it, movie_info AS mi, name AS n, role_type AS rt, title AS t
WHERE it.id = 15
  AND rt.role = 'writer'
  AND mi.info_type_id = it.id
  AND ci.role_id = rt.id
  AND ci.movie_id = t.id
  AND mi.movie_id = t.id
  AND ci.person_id = n.id`},

	{Name: "31a", SQL: `
SELECT ci.note, mi.info, t.title
FROM cast_info AS ci, info_type AS it, movie_info AS mi, role_type AS rt, title AS t
WHERE it.id = 8
  AND rt.role = 'cinematographer'
  AND mi.info_type_id = it.id
  AND ci.role_id = rt.id
  AND ci.movie_id = t.id
  AND mi.movie_id = t.id`},

	{Name: "32a", SQL: `
SELECT k.keyword, t.title
FROM keyword AS k, kind_type AS kt, movie_keyword AS mk, title AS t
WHERE k.keyword LIKE 'sequel-%'
  AND kt.kind = 'episode'
  AND kt.id = t.kind_id
  AND mk.keyword_id = k.id
  AND mk.movie_id = t.id`},

	{Name: "33c", SQL: `
SELECT cn.name, t.title
FROM company_name AS cn, company_type AS ct, kind_type AS kt, movie_companies AS mc, title AS t
WHERE cn.country_code = '[jp]'
  AND ct.kind = 'distributors'
  AND kt.kind = 'tv movie'
  AND kt.id = t.kind_id
  AND mc.company_type_id = ct.id
  AND mc.company_id = cn.id
  AND mc.movie_id = t.id
  AND t.production_year > 2000`},
}
