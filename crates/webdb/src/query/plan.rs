//! Logical query plans.
//!
//! Fragments declare their content as a small relational plan — scan,
//! filter, project, equi-join, aggregate, sort, limit — enough to express
//! every fragment of the §II-B application (price lists, portfolio joins,
//! aggregates, alert predicates) and realistic personalized-page queries in
//! general.

use crate::expr::{EvalError, Expr};
use crate::schema::{Column, Schema, SchemaError};
use crate::storage::{Database, StorageError};
use crate::value::ValueType;
use std::fmt;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (input column ignored for NULL purposes: counts all rows).
    Count,
    /// Sum of a numeric column (Int stays Int, Float stays Float).
    Sum,
    /// Mean of a numeric column (always Float).
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// One aggregate output.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub output: String,
    /// Function.
    pub func: AggFunc,
    /// Input column (`None` only for `Count`).
    pub input: Option<String>,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full scan of a named table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Point lookup on a table's unique primary-key index: zero or one row.
    /// Usually produced by [`crate::query::optimize()`] from
    /// `Filter(Scan, pk = literal)`.
    IndexLookup {
        /// Table name (must have a primary key).
        table: String,
        /// The key value to look up.
        key: crate::value::Value,
    },
    /// Keep rows where the predicate is true.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate expression.
        predicate: Expr,
    },
    /// Compute named output columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        columns: Vec<(String, Expr)>,
    },
    /// Hash equi-join.
    Join {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// Join column on the left.
        left_col: String,
        /// Join column on the right.
        right_col: String,
    },
    /// Grouped or global aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Optional group-by column.
        group_by: Option<String>,
        /// Aggregate outputs.
        aggs: Vec<AggSpec>,
    },
    /// Sort by one column.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort column.
        by: String,
        /// Descending?
        desc: bool,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
}

/// Errors from planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Storage-level problem (missing table, ...).
    Storage(StorageError),
    /// Name/type resolution problem.
    Schema(SchemaError),
    /// Runtime expression failure.
    Eval(EvalError),
    /// Structural plan problem.
    Plan(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "{e}"),
            QueryError::Schema(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
            QueryError::Plan(s) => write!(f, "plan error: {s}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}
impl From<SchemaError> for QueryError {
    fn from(e: SchemaError) -> Self {
        QueryError::Schema(e)
    }
}
impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        QueryError::Eval(e)
    }
}

impl Plan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    /// Filter builder.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Projection builder.
    pub fn project(self, columns: Vec<(&str, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns: columns
                .into_iter()
                .map(|(n, e)| (n.to_string(), e))
                .collect(),
        }
    }

    /// Join builder (`self` is the probe side).
    pub fn join(self, right: Plan, left_col: &str, right_col: &str) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
        }
    }

    /// Aggregation builder.
    pub fn aggregate(self, group_by: Option<&str>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.map(str::to_string),
            aggs,
        }
    }

    /// Sort builder.
    pub fn sort(self, by: &str, desc: bool) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by: by.to_string(),
            desc,
        }
    }

    /// Limit builder.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Infer the output schema against a catalog.
    pub fn output_schema(&self, db: &Database) -> Result<Schema, QueryError> {
        match self {
            Plan::Scan { table } => Ok(db.table(table)?.schema().clone()),
            Plan::IndexLookup { table, .. } => {
                let t = db.table(table)?;
                if t.primary_key().is_none() {
                    return Err(QueryError::Plan(format!(
                        "IndexLookup on `{table}` which has no primary key"
                    )));
                }
                Ok(t.schema().clone())
            }
            Plan::Filter { input, predicate } => {
                let schema = input.output_schema(db)?;
                // Validate the predicate binds.
                predicate.compile(&schema)?;
                Ok(schema)
            }
            Plan::Project { input, columns } => {
                let schema = input.output_schema(db)?;
                if columns.is_empty() {
                    return Err(QueryError::Plan("projection with no columns".into()));
                }
                let mut out = Vec::with_capacity(columns.len());
                for (name, expr) in columns {
                    expr.compile(&schema)?;
                    // Projection output types are not statically inferred in
                    // this small engine; expressions may mix Int/Float. Use
                    // a nullable Float/Str-agnostic convention: infer from a
                    // column ref when possible, else declare Float.
                    let ty = match expr {
                        Expr::Col(c) => schema.column(c)?.ty,
                        Expr::Lit(v) => v.value_type().unwrap_or(ValueType::Float),
                        _ => ValueType::Float,
                    };
                    out.push(Column::nullable(name.clone(), ty));
                }
                Ok(Schema::new(out)?)
            }
            Plan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let ls = left.output_schema(db)?;
                let rs = right.output_schema(db)?;
                ls.index_of(left_col)?;
                rs.index_of(right_col)?;
                Ok(ls.join(&rs, "r")?)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let schema = input.output_schema(db)?;
                if aggs.is_empty() {
                    return Err(QueryError::Plan("aggregate with no functions".into()));
                }
                let mut out = Vec::new();
                if let Some(g) = group_by {
                    let c = schema.column(g)?;
                    out.push(Column::nullable(g.clone(), c.ty));
                }
                for a in aggs {
                    let ty = match (a.func, &a.input) {
                        (AggFunc::Count, _) => ValueType::Int,
                        (AggFunc::Avg, _) => ValueType::Float,
                        (_, Some(c)) => schema.column(c)?.ty,
                        (f, None) => {
                            return Err(QueryError::Plan(format!("{f:?} requires an input column")))
                        }
                    };
                    out.push(Column::nullable(a.output.clone(), ty));
                }
                Ok(Schema::new(out)?)
            }
            Plan::Sort { input, by, .. } => {
                let schema = input.output_schema(db)?;
                schema.index_of(by)?;
                Ok(schema)
            }
            Plan::Limit { input, .. } => input.output_schema(db),
        }
    }

    /// Depth-first iterator over this plan's nodes (self included).
    pub fn nodes(&self) -> Vec<&Plan> {
        let mut out = vec![self];
        match self {
            Plan::Scan { .. } | Plan::IndexLookup { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => out.extend(input.nodes()),
            Plan::Join { left, right, .. } => {
                out.extend(left.nodes());
                out.extend(right.nodes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Table;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        let stocks = Schema::new(vec![
            Column::required("symbol", ValueType::Str),
            Column::required("price", ValueType::Float),
        ])
        .unwrap();
        let mut t = Table::new("stocks", stocks);
        t.insert(vec![Value::str("AAPL"), Value::Float(150.0)])
            .unwrap();
        db.create(t).unwrap();
        let holdings = Schema::new(vec![
            Column::required("symbol", ValueType::Str),
            Column::required("qty", ValueType::Int),
        ])
        .unwrap();
        db.create(Table::new("holdings", holdings)).unwrap();
        db
    }

    #[test]
    fn scan_schema_is_table_schema() {
        let s = Plan::scan("stocks").output_schema(&db()).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn join_schema_prefixes_duplicates() {
        let p = Plan::scan("stocks").join(Plan::scan("holdings"), "symbol", "symbol");
        let s = p.output_schema(&db()).unwrap();
        let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["symbol", "price", "r.symbol", "qty"]);
    }

    #[test]
    fn aggregate_schema_types() {
        let p = Plan::scan("stocks").aggregate(
            None,
            vec![
                AggSpec {
                    output: "n".into(),
                    func: AggFunc::Count,
                    input: None,
                },
                AggSpec {
                    output: "total".into(),
                    func: AggFunc::Sum,
                    input: Some("price".into()),
                },
                AggSpec {
                    output: "mean".into(),
                    func: AggFunc::Avg,
                    input: Some("price".into()),
                },
            ],
        );
        let s = p.output_schema(&db()).unwrap();
        assert_eq!(s.column("n").unwrap().ty, ValueType::Int);
        assert_eq!(s.column("total").unwrap().ty, ValueType::Float);
        assert_eq!(s.column("mean").unwrap().ty, ValueType::Float);
    }

    #[test]
    fn bad_references_rejected() {
        assert!(Plan::scan("nope").output_schema(&db()).is_err());
        assert!(Plan::scan("stocks")
            .filter(Expr::col("nope").eq(Expr::lit(Value::Int(1))))
            .output_schema(&db())
            .is_err());
        assert!(Plan::scan("stocks")
            .sort("nope", false)
            .output_schema(&db())
            .is_err());
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(
            Plan::scan("stocks").project(vec![]).output_schema(&db()),
            Err(QueryError::Plan(_))
        ));
        assert!(matches!(
            Plan::scan("stocks")
                .aggregate(None, vec![])
                .output_schema(&db()),
            Err(QueryError::Plan(_))
        ));
        assert!(matches!(
            Plan::scan("stocks")
                .aggregate(
                    None,
                    vec![AggSpec {
                        output: "x".into(),
                        func: AggFunc::Sum,
                        input: None
                    }]
                )
                .output_schema(&db()),
            Err(QueryError::Plan(_))
        ));
    }

    #[test]
    fn nodes_enumerates_tree() {
        let p = Plan::scan("stocks")
            .join(Plan::scan("holdings"), "symbol", "symbol")
            .filter(Expr::col("qty").gt(Expr::lit(Value::Int(0))))
            .limit(5);
        assert_eq!(p.nodes().len(), 5);
    }
}
