//! Columnar storage with hash indexes, copy-on-write at chunk grain.
//!
//! Each column is a run of chunks of [`BATCH`] slots (the columnar
//! executor's batch size). A chunk holds its typed cells (`i64`s, or
//! text packed into one buffer, [`TextCells`]) plus its own validity
//! bitmap marking the non-NULL slots, so a full-scan batch reads one
//! chunk (`Rows::Chunk`) and index-probe candidates resolve a chunk
//! per run of ids (`Rows::Ids`). The row-oriented view the rest of
//! the engine was written against survives as a cheap seam
//! ([`Table::row`], [`Table::read_row_into`], [`Table::value`]) that
//! materialises `Value`s on demand.
//!
//! Every chunk sits behind its own `Arc`, and every hash index is a
//! persistent hash trie ([`PMap`]) whose nodes do too. Cloning a
//! [`Table`] — and therefore a whole `Database` snapshot — is a few
//! reference-count bumps. The first append to a table a snapshot shares
//! copies its list of chunk pointers (one per 1,024 rows), the tail
//! chunk of each column, and one root-to-leaf trie path per index
//! insert; every full chunk and every other trie node stays shared.
//! `Table::unshared_with` counts what a fork has copied. A served
//! policy install (install plus snapshot refresh, a snapshot alive)
//! measured 4.6–6.5 ms at 2,000 policies and 5.8–8.0 ms at 20,000 over
//! four runs of `repro --table scaling` on a 2-vCPU x86-64 VM, where
//! copying whole columns and indexes took 0.26–0.37 s and 4.1–4.7 s.
//! Deletes and updates still rebuild the whole table. Planner
//! statistics are cached per table version in an `Arc<OnceLock<..>>`
//! that every mutation replaces, so snapshots keep the stats of the
//! version they captured.

use crate::columnar::BATCH;
use crate::error::DbError;
use crate::pmap::PMap;
use crate::schema::{DataType, TableSchema};
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// A hash index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    /// Name from CREATE INDEX (the automatic primary-key index is
    /// `pk_<table>`; indexes created through the typed API may be
    /// anonymous).
    name: Option<String>,
    /// Indexes into the table's column list.
    pub columns: Vec<usize>,
    /// Key values → row numbers.
    map: PMap<Vec<Value>, Vec<usize>>,
}

impl Index {
    fn new(name: Option<String>, columns: Vec<usize>) -> Index {
        Index {
            name,
            columns,
            map: PMap::default(),
        }
    }

    /// The index's name, when it has one (EXPLAIN reports it).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    fn insert(&mut self, row: &[Value], row_id: usize) {
        self.map
            .get_or_insert_with(self.key_of(row), Vec::new)
            .push(row_id);
    }

    /// Row ids whose indexed columns equal `key`.
    pub fn probe(&self, key: &[Value]) -> &[usize] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys currently indexed. Maintained
    /// incrementally by inserts and index rebuilds, so the planner's
    /// distinct-value estimates are exact and free to read.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Statistics for one index: its column set and distinct-key count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    pub name: Option<String>,
    /// Indexes into the table's column list.
    pub columns: Vec<usize>,
    pub distinct_keys: usize,
}

/// Per-table statistics consumed by the cost-based join planner.
/// Computed once per table version and cached (see [`Table::stats`]);
/// every mutation installs a fresh cache cell, so a stale read is
/// impossible and repeated planning is free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    pub row_count: usize,
    pub indexes: Vec<IndexStats>,
}

/// What one table (or database) holds that another does not share with
/// it, compared by `Arc` pointer at chunk and trie-node grain. For a
/// copy-on-write fork, this is what its writes copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unshared {
    /// Cells of column chunks the other side does not share.
    pub cells: usize,
    /// Entries of index trie nodes the other side does not share.
    pub index_entries: usize,
}

impl std::ops::AddAssign for Unshared {
    fn add_assign(&mut self, other: Unshared) {
        self.cells += other.cells;
        self.index_entries += other.index_entries;
    }
}

/// The rows one batch of the columnar executor covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// The first `len` rows of chunk `chunk`: a full-scan batch.
    Chunk { chunk: usize, len: usize },
    /// Arbitrary row ids, such as index-probe candidates.
    Ids(&'a [usize]),
}

impl Rows<'_> {
    /// Number of rows in the batch.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Chunk { len, .. } => *len,
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// The row id at batch position `k`.
    #[inline]
    pub(crate) fn id(&self, k: usize) -> usize {
        match self {
            Rows::Chunk { chunk, .. } => chunk * BATCH + k,
            Rows::Ids(ids) => ids[k],
        }
    }
}

/// A chunk's typed cells, kept beside its validity bitmap. NULL slots
/// hold a placeholder (`0` / `""`).
pub trait Payload: Clone + Default {
    /// One cell as kernels read it: `i64` or `str`.
    type Cell: ?Sized;
    /// Number of slots, NULL or not.
    fn slots(&self) -> usize;
    fn cell(&self, slot: usize) -> &Self::Cell;
    /// Append a cell, or the placeholder for NULL.
    fn push(&mut self, cell: Option<&Self::Cell>);
    /// Release spare capacity (once the chunk is full).
    fn shrink_to_fit(&mut self);
}

impl Payload for Vec<i64> {
    type Cell = i64;

    fn slots(&self) -> usize {
        self.len()
    }

    #[inline]
    fn cell(&self, slot: usize) -> &i64 {
        &self[slot]
    }

    fn push(&mut self, cell: Option<&i64>) {
        Vec::push(self, cell.copied().unwrap_or(0));
    }

    fn shrink_to_fit(&mut self) {
        Vec::shrink_to_fit(self);
    }
}

/// Text cells packed into one buffer: cell `i` is the bytes between
/// `ends[i - 1]` (0 for the first cell) and `ends[i]`. Copying a chunk
/// copies two buffers rather than allocating once per cell.
#[derive(Debug, Clone, Default)]
pub struct TextCells {
    bytes: String,
    ends: Vec<u32>,
}

impl Payload for TextCells {
    type Cell = str;

    fn slots(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn cell(&self, slot: usize) -> &str {
        let start = slot.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.bytes[start as usize..self.ends[slot] as usize]
    }

    fn push(&mut self, cell: Option<&str>) {
        self.bytes.push_str(cell.unwrap_or(""));
        let end = u32::try_from(self.bytes.len()).expect("a chunk's text fits in 4 GiB");
        self.ends.push(end);
    }

    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// Up to [`BATCH`] consecutive slots of one column: the typed cells
/// plus a validity bitmap (bit set ⇒ the slot holds a real value, clear
/// ⇒ NULL).
#[derive(Debug, Clone)]
struct Chunk<P> {
    cells: P,
    validity: [u64; BATCH / 64],
}

impl<P: Payload> Chunk<P> {
    #[inline]
    fn get(&self, slot: usize) -> Option<&P::Cell> {
        (self.validity[slot / 64] >> (slot % 64) & 1 == 1).then(|| self.cells.cell(slot))
    }
}

/// One column's cells: row `r` lives in slot `r % BATCH` of chunk
/// `r / BATCH`, and each chunk is shared copy-on-write.
#[derive(Debug, Clone)]
pub struct Chunked<P>(Vec<Arc<Chunk<P>>>);

impl<P: Payload> Chunked<P> {
    /// The cell of row `row`; `None` when it is NULL.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> Option<&P::Cell> {
        self.0[row / BATCH].get(row % BATCH)
    }

    /// Call `f(k, cell)` for the row at each batch position `k`, with
    /// `None` for NULL. A full-scan batch reads one chunk, and a run of
    /// ids inside one chunk resolves that chunk once.
    #[inline]
    pub(crate) fn each<'s>(
        &'s self,
        rows: Rows<'_>,
        mut f: impl FnMut(usize, Option<&'s P::Cell>),
    ) {
        match rows {
            Rows::Chunk { chunk, len } => {
                let chunk = &self.0[chunk];
                for k in 0..len {
                    f(k, chunk.get(k));
                }
            }
            Rows::Ids(ids) => {
                let mut k = 0;
                while k < ids.len() {
                    let n = ids[k] / BATCH;
                    let chunk = &self.0[n];
                    while let Some(&id) = ids.get(k).filter(|&&id| id / BATCH == n) {
                        f(k, chunk.get(id % BATCH));
                        k += 1;
                    }
                }
            }
        }
    }

    /// Append one cell, copying the tail chunk first if it is shared.
    fn push(&mut self, cell: Option<&P::Cell>) {
        if self.0.last().is_none_or(|c| c.cells.slots() == BATCH) {
            self.0.push(Arc::new(Chunk {
                cells: P::default(),
                validity: [0; BATCH / 64],
            }));
        }
        let chunk = Arc::make_mut(self.0.last_mut().expect("a tail chunk"));
        let slot = chunk.cells.slots();
        if cell.is_some() {
            chunk.validity[slot / 64] |= 1 << (slot % 64);
        }
        chunk.cells.push(cell);
        if slot + 1 == BATCH {
            chunk.cells.shrink_to_fit();
        }
    }

    /// Cells in chunks `other` does not share at the same position.
    fn unshared_cells(&self, other: &Chunked<P>) -> usize {
        self.0
            .iter()
            .enumerate()
            .filter(|(i, c)| other.0.get(*i).is_none_or(|o| !Arc::ptr_eq(c, o)))
            .map(|(_, c)| c.cells.slots())
            .sum()
    }
}

/// One column: chunked `i64` or text cells.
#[derive(Debug, Clone)]
pub enum Column {
    Int(Chunked<Vec<i64>>),
    Text(Chunked<TextCells>),
}

impl Column {
    fn new(data_type: DataType) -> Column {
        match data_type {
            DataType::Int => Column::Int(Chunked(Vec::new())),
            DataType::Text => Column::Text(Chunked(Vec::new())),
        }
    }

    /// Append one value. The caller (always behind
    /// `TableSchema::check_row`) guarantees the value's type matches
    /// the column's.
    fn push(&mut self, value: &Value) {
        match (self, value) {
            (Column::Int(c), Value::Int(x)) => c.push(Some(x)),
            (Column::Text(c), Value::Text(s)) => c.push(Some(s)),
            (Column::Int(c), value) => {
                debug_assert!(value.is_null(), "type mismatch past check_row");
                c.push(None);
            }
            (Column::Text(c), value) => {
                debug_assert!(value.is_null(), "type mismatch past check_row");
                c.push(None);
            }
        }
    }

    /// True when row `row` holds a real (non-NULL) value.
    pub fn is_valid(&self, row: usize) -> bool {
        match self {
            Column::Int(c) => c.get(row).is_some(),
            Column::Text(c) => c.get(row).is_some(),
        }
    }

    /// Materialise row `row` as a [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(c) => c.get(row).map_or(Value::Null, |&x| Value::Int(x)),
            Column::Text(c) => c
                .get(row)
                .map_or(Value::Null, |s| Value::Text(s.to_owned())),
        }
    }

    /// The integer cells, when this is an Int column.
    pub fn ints(&self) -> Option<&Chunked<Vec<i64>>> {
        match self {
            Column::Int(c) => Some(c),
            Column::Text(_) => None,
        }
    }

    /// The text cells, when this is a Text column.
    pub fn texts(&self) -> Option<&Chunked<TextCells>> {
        match self {
            Column::Text(c) => Some(c),
            Column::Int(_) => None,
        }
    }

    /// A new column holding only the rows where `keep` is true, in
    /// order.
    fn retain_by_mask(&self, keep: &[bool]) -> Column {
        let mut kept = match self {
            Column::Int(_) => Column::new(DataType::Int),
            Column::Text(_) => Column::new(DataType::Text),
        };
        for (row, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            kept.push(&self.value(row));
        }
        kept
    }

    fn unshared_cells(&self, other: &Column) -> usize {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.unshared_cells(b),
            (Column::Text(a), Column::Text(b)) => a.unshared_cells(b),
            (Column::Int(a), _) => a.unshared_cells(&Chunked(Vec::new())),
            (Column::Text(a), _) => a.unshared_cells(&Chunked(Vec::new())),
        }
    }
}

/// A stored table: schema, chunked columns, and indexes. Columns and
/// indexes are shared on clone (copy-on-write at chunk and trie-node
/// grain).
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    cols: Arc<Vec<Column>>,
    row_count: usize,
    indexes: Arc<Vec<Index>>,
    /// Cached planner statistics for this table version. Mutations
    /// swap in a fresh cell rather than clearing this one, so
    /// snapshots sharing the old cell keep their (still correct)
    /// cached value.
    stats: Arc<OnceLock<Arc<TableStats>>>,
}

impl Table {
    /// An empty table. A unique index on the primary key (when present)
    /// is created automatically.
    pub fn new(schema: TableSchema) -> Table {
        let mut indexes = Vec::new();
        if !schema.primary_key.is_empty() {
            let name = format!("pk_{}", schema.name.to_ascii_lowercase());
            indexes.push(Index::new(Some(name), schema.primary_key.clone()));
        }
        Table {
            indexes: Arc::new(indexes),
            cols: Arc::new(Self::empty_columns(&schema)),
            row_count: 0,
            stats: Arc::new(OnceLock::new()),
            schema,
        }
    }

    fn empty_columns(schema: &TableSchema) -> Vec<Column> {
        schema
            .columns
            .iter()
            .map(|c| Column::new(c.data_type))
            .collect()
    }

    /// Any mutation makes the cached statistics stale for *this*
    /// table; snapshots keep the cell (and value) they already share.
    fn invalidate_stats(&mut self) {
        self.stats = Arc::new(OnceLock::new());
    }

    /// The chunked columns (for batch kernels).
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// The full-scan batches: one `Rows::Chunk` per chunk, in row
    /// order.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = Rows<'static>> {
        let rows = self.row_count;
        (0..rows.div_ceil(BATCH)).map(move |chunk| Rows::Chunk {
            chunk,
            len: (rows - chunk * BATCH).min(BATCH),
        })
    }

    /// Materialise row `id` as an owned `Vec<Value>`.
    pub fn row(&self, id: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(id)).collect()
    }

    /// Materialise row `id` into `buf` (cleared first), reusing its
    /// allocation.
    pub fn read_row_into(&self, id: usize, buf: &mut Vec<Value>) {
        buf.clear();
        for c in self.cols.iter() {
            buf.push(c.value(id));
        }
    }

    /// Materialise the single cell at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].value(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_count
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Insert a validated row (primary-key uniqueness enforced).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        self.schema.check_row(&row)?;
        let row_id = self.row_count;
        let indexes = Arc::make_mut(&mut self.indexes);
        let mut secondary = &mut indexes[..];
        if !self.schema.primary_key.is_empty() {
            let key = self.schema.primary_key_of(&row);
            if key.iter().any(Value::is_null) {
                return Err(DbError::Constraint(format!(
                    "primary key of `{}` may not contain NULL",
                    self.schema.name
                )));
            }
            // One trie walk both checks uniqueness and indexes the row;
            // a duplicate leaves the index as it was.
            let (pk, rest) = secondary.split_first_mut().expect("the primary-key index");
            let ids = pk.map.get_or_insert_with(key, Vec::new);
            if !ids.is_empty() {
                return Err(DbError::Constraint(format!(
                    "duplicate primary key in `{}`",
                    self.schema.name
                )));
            }
            ids.push(row_id);
            secondary = rest;
        }
        for index in secondary {
            index.insert(&row, row_id);
        }
        let cols = Arc::make_mut(&mut self.cols);
        for (col, value) in cols.iter_mut().zip(&row) {
            col.push(value);
        }
        self.row_count += 1;
        self.invalidate_stats();
        Ok(())
    }

    /// Add an anonymous hash index over the named columns; backfills
    /// existing rows.
    pub fn create_index(&mut self, column_names: &[String]) -> Result<(), DbError> {
        self.create_index_named(None, column_names)
    }

    /// Add a hash index carrying its CREATE INDEX name; backfills
    /// existing rows. Creating an index over an already-indexed column
    /// set is a no-op (the existing index and its name win).
    pub fn create_index_named(
        &mut self,
        index_name: Option<&str>,
        column_names: &[String],
    ) -> Result<(), DbError> {
        let mut columns = Vec::with_capacity(column_names.len());
        for name in column_names {
            columns.push(
                self.schema
                    .column_index(name)
                    .ok_or_else(|| DbError::UnknownColumn(name.clone()))?,
            );
        }
        if self.indexes.iter().any(|i| i.columns == columns) {
            return Ok(()); // idempotent
        }
        let mut index = Index::new(index_name.map(str::to_string), columns);
        let mut row = Vec::with_capacity(self.cols.len());
        for row_id in 0..self.row_count {
            self.read_row_into(row_id, &mut row);
            index.insert(&row, row_id);
        }
        Arc::make_mut(&mut self.indexes).push(index);
        self.invalidate_stats();
        Ok(())
    }

    /// Find an index covering exactly the given column set (order
    /// insensitive prefix match is not attempted — the shredder creates
    /// the indexes it needs).
    pub fn find_index(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| {
            i.columns.len() == columns.len() && i.columns.iter().all(|c| columns.contains(c))
        })
    }

    /// All indexes (for planning).
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Statistics for this table version: row count plus per-index
    /// distinct-key counts. Computed on first use and cached until the
    /// next mutation; clones of the returned `Arc` stay valid (and
    /// correct for the version they describe) even across later
    /// mutations.
    pub fn stats(&self) -> Arc<TableStats> {
        self.stats
            .get_or_init(|| {
                Arc::new(TableStats {
                    row_count: self.row_count,
                    indexes: self
                        .indexes
                        .iter()
                        .map(|i| IndexStats {
                            name: i.name.clone(),
                            columns: i.columns.clone(),
                            distinct_keys: i.map.len(),
                        })
                        .collect(),
                })
            })
            .clone()
    }

    /// What this table holds that `other` does not share with it:
    /// cells of column chunks and entries of index trie nodes, compared
    /// by `Arc` pointer position by position. Zero for a fresh clone;
    /// after appends to a fork, the copied tail chunks and trie paths.
    pub(crate) fn unshared_with(&self, other: &Table) -> Unshared {
        let cells = if Arc::ptr_eq(&self.cols, &other.cols) {
            0
        } else {
            self.cols
                .iter()
                .enumerate()
                .map(|(i, col)| match other.cols.get(i) {
                    Some(twin) => col.unshared_cells(twin),
                    None => self.row_count,
                })
                .sum()
        };
        let index_entries = self
            .indexes
            .iter()
            .enumerate()
            .map(|(i, index)| match other.indexes.get(i) {
                Some(twin) => index.map.unshared_entries(&twin.map),
                None => index.map.len(),
            })
            .sum();
        Unshared {
            cells,
            index_entries,
        }
    }

    /// Delete the rows at the given positions, rebuilding indexes.
    pub fn delete_rows(&mut self, mut row_ids: Vec<usize>) -> usize {
        row_ids.sort_unstable();
        row_ids.dedup();
        let mut keep = vec![true; self.row_count];
        for &id in &row_ids {
            keep[id] = false;
        }
        self.cols = Arc::new(self.cols.iter().map(|c| c.retain_by_mask(&keep)).collect());
        self.row_count -= row_ids.len();
        self.reindex_all();
        self.invalidate_stats();
        row_ids.len()
    }

    /// Apply UPDATE assignments to every row equal to one of
    /// `matching` (whole-row comparison, each matched at most once),
    /// re-validating constraints; all indexes are rebuilt. Returns the
    /// number of rows changed. On any constraint violation nothing is
    /// modified.
    pub fn update_rows(
        &mut self,
        matching: &[Vec<Value>],
        col_indexes: &[usize],
        values: &[Value],
    ) -> Result<usize, DbError> {
        debug_assert_eq!(col_indexes.len(), values.len());
        let mut updated: Vec<Vec<Value>> = (0..self.row_count).map(|i| self.row(i)).collect();
        let mut remaining: Vec<&Vec<Value>> = matching.iter().collect();
        let mut changed = 0usize;
        for row in &mut updated {
            if let Some(pos) = remaining.iter().position(|m| *m == row) {
                remaining.remove(pos);
                for (&col, value) in col_indexes.iter().zip(values) {
                    row[col] = value.clone();
                }
                self.schema.check_row(row)?;
                changed += 1;
            }
        }
        // Re-check primary-key uniqueness over the updated image.
        if !self.schema.primary_key.is_empty() {
            let mut keys: Vec<Vec<Value>> = updated
                .iter()
                .map(|r| self.schema.primary_key_of(r))
                .collect();
            if keys.iter().any(|k| k.iter().any(Value::is_null)) {
                return Err(DbError::Constraint(format!(
                    "primary key of `{}` may not contain NULL",
                    self.schema.name
                )));
            }
            let before = keys.len();
            keys.sort_by(|a, b| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            keys.dedup();
            if keys.len() != before {
                return Err(DbError::Constraint(format!(
                    "UPDATE would duplicate a primary key in `{}`",
                    self.schema.name
                )));
            }
        }
        let mut cols = Self::empty_columns(&self.schema);
        for row in &updated {
            for (col, value) in cols.iter_mut().zip(row) {
                col.push(value);
            }
        }
        self.cols = Arc::new(cols);
        self.reindex_all();
        self.invalidate_stats();
        Ok(changed)
    }

    /// Remove all rows, keeping the schema and (empty) indexes.
    pub fn truncate(&mut self) {
        self.cols = Arc::new(Self::empty_columns(&self.schema));
        self.row_count = 0;
        self.rebuild_indexes_empty();
        self.invalidate_stats();
    }

    /// Replace every index with an empty copy of itself (same name and
    /// columns), used before re-inserting all rows after bulk mutation.
    fn rebuild_indexes_empty(&mut self) {
        self.indexes = Arc::new(
            self.indexes
                .iter()
                .map(|i| Index::new(i.name.clone(), i.columns.clone()))
                .collect(),
        );
    }

    /// Rebuild every index from current storage.
    fn reindex_all(&mut self) {
        self.rebuild_indexes_empty();
        let cols = Arc::clone(&self.cols);
        let indexes = Arc::make_mut(&mut self.indexes);
        let mut row = Vec::with_capacity(cols.len());
        for row_id in 0..self.row_count {
            row.clear();
            for c in cols.iter() {
                row.push(c.value(row_id));
            }
            for index in indexes.iter_mut() {
                index.insert(&row, row_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn table() -> Table {
        Table::new(TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    data_type: DataType::Int,
                    not_null: true,
                },
                ColumnDef {
                    name: "name".into(),
                    data_type: DataType::Text,
                    not_null: false,
                },
            ],
            primary_key: vec![0],
            foreign_keys: vec![],
        })
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1)[0], Value::Int(2));
        assert_eq!(t.value(1, 1), Value::Null);
        assert_eq!(t.value(0, 1), Value::Text("a".into()));
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let err = t.insert(vec![Value::Int(1), Value::Null]).unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"));
    }

    #[test]
    fn primary_key_rejects_null() {
        let mut t = Table::new(TableSchema {
            name: "t".into(),
            columns: vec![ColumnDef {
                name: "id".into(),
                data_type: DataType::Int,
                not_null: false,
            }],
            primary_key: vec![0],
            foreign_keys: vec![],
        });
        assert!(t.insert(vec![Value::Null]).is_err());
    }

    #[test]
    fn pk_index_probe() {
        let mut t = table();
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Text(format!("n{i}"))])
                .unwrap();
        }
        let idx = t.find_index(&[0]).unwrap();
        assert_eq!(idx.probe(&[Value::Int(42)]), &[42]);
        assert!(idx.probe(&[Value::Int(1000)]).is_empty());
    }

    #[test]
    fn secondary_index_backfills() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Text("x".into())])
            .unwrap();
        t.create_index(&["name".to_string()]).unwrap();
        let idx = t.find_index(&[1]).unwrap();
        assert_eq!(idx.probe(&[Value::Text("x".into())]).len(), 2);
    }

    #[test]
    fn create_index_is_idempotent() {
        let mut t = table();
        t.create_index(&["name".to_string()]).unwrap();
        t.create_index(&["name".to_string()]).unwrap();
        assert_eq!(t.indexes().len(), 2); // pk + name
    }

    #[test]
    fn create_index_unknown_column() {
        let mut t = table();
        assert!(t.create_index(&["nope".to_string()]).is_err());
    }

    #[test]
    fn delete_rows_rebuilds_indexes() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        let removed = t.delete_rows(vec![1, 3]);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 3);
        let idx = t.find_index(&[0]).unwrap();
        assert!(idx.probe(&[Value::Int(1)]).is_empty());
        assert_eq!(idx.probe(&[Value::Int(4)]).len(), 1);
        // row id must point at the right row after compaction
        let id = idx.probe(&[Value::Int(4)])[0];
        assert_eq!(t.row(id)[0], Value::Int(4));
    }

    #[test]
    fn index_names_survive_rebuilds() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Text("y".into())])
            .unwrap();
        t.create_index_named(Some("idx_name"), &["name".to_string()])
            .unwrap();
        let names = |t: &Table| -> Vec<Option<String>> {
            t.indexes()
                .iter()
                .map(|i| i.name().map(str::to_string))
                .collect()
        };
        let expected = vec![Some("pk_t".to_string()), Some("idx_name".to_string())];
        assert_eq!(names(&t), expected);
        t.delete_rows(vec![0]);
        assert_eq!(names(&t), expected, "after delete");
        t.update_rows(&[], &[], &[]).unwrap();
        assert_eq!(names(&t), expected, "after update");
        t.truncate();
        assert_eq!(names(&t), expected, "after truncate");
    }

    #[test]
    fn clone_shares_rows_until_mutation() {
        let mut t = table();
        // Two full chunks and a partial tail.
        let rows = 2 * BATCH as i64 + 10;
        for i in 0..rows {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        let snapshot = t.clone();
        // Clone is a few Arc bumps: storage is physically shared.
        assert!(Arc::ptr_eq(&t.cols, &snapshot.cols));
        assert!(Arc::ptr_eq(&t.indexes, &snapshot.indexes));
        assert_eq!(t.unshared_with(&snapshot), Unshared::default());
        // Mutation detaches the writer's tail chunks and one trie path;
        // the full chunks stay shared and the snapshot is unchanged.
        t.insert(vec![Value::Int(rows), Value::Null]).unwrap();
        assert!(!Arc::ptr_eq(&t.cols, &snapshot.cols));
        for (mine, theirs) in t.cols.iter().zip(snapshot.cols.iter()) {
            let chunks = |c: &Column| match c {
                Column::Int(c) => c.0.iter().map(|a| Arc::as_ptr(a) as usize).collect(),
                Column::Text(c) => {
                    c.0.iter()
                        .map(|a| Arc::as_ptr(a) as usize)
                        .collect::<Vec<_>>()
                }
            };
            let (mine, theirs) = (chunks(mine), chunks(theirs));
            assert_eq!(mine[..2], theirs[..2], "full chunks stay shared");
            assert_ne!(mine[2], theirs[2], "the tail chunk is copied");
        }
        let copied = t.unshared_with(&snapshot);
        assert_eq!(copied.cells, 2 * 11, "the two columns' tail chunks");
        assert!((1..=2 * 32).contains(&copied.index_entries), "{copied:?}");
        assert_eq!(t.len(), rows as usize + 1);
        assert_eq!(snapshot.len(), rows as usize);
        let idx = snapshot.find_index(&[0]).unwrap();
        assert!(idx.probe(&[Value::Int(rows)]).is_empty());
        assert_eq!(
            t.find_index(&[0]).unwrap().probe(&[Value::Int(rows)]),
            &[rows as usize]
        );
    }

    #[test]
    fn stats_track_rows_and_distinct_keys() {
        let mut t = table();
        t.create_index_named(Some("idx_name"), &["name".to_string()])
            .unwrap();
        for i in 0..10 {
            // Names repeat every 3 inserts: 4 distinct name keys.
            t.insert(vec![Value::Int(i), Value::Text(format!("n{}", i % 4))])
                .unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.row_count, 10);
        let pk = &stats.indexes[0];
        assert_eq!(pk.name.as_deref(), Some("pk_t"));
        assert_eq!(pk.distinct_keys, 10);
        let by_name = &stats.indexes[1];
        assert_eq!(by_name.columns, vec![1]);
        assert_eq!(by_name.distinct_keys, 4);
    }

    #[test]
    fn stats_survive_bulk_mutation() {
        let mut t = table();
        for i in 0..6 {
            t.insert(vec![Value::Int(i), Value::Text("x".into())])
                .unwrap();
        }
        t.delete_rows(vec![0, 1]);
        assert_eq!(t.stats().row_count, 4);
        assert_eq!(t.stats().indexes[0].distinct_keys, 4);
        t.truncate();
        assert_eq!(t.stats().row_count, 0);
        assert_eq!(t.stats().indexes[0].distinct_keys, 0);
    }

    #[test]
    fn stats_are_cached_per_version_and_stale_free_across_cow_forks() {
        let mut t = table();
        for i in 0..4 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        // Warm the cache; repeated reads hand back the same Arc.
        let warm = t.stats();
        assert!(Arc::ptr_eq(&warm, &t.stats()));
        // COW fork: the snapshot shares the warm cache cell.
        let snapshot = t.clone();
        assert!(Arc::ptr_eq(&warm, &snapshot.stats()));
        // Mutating the writer must not leave it reading stale stats —
        // and must not disturb the snapshot's view of the old version.
        t.insert(vec![Value::Int(99), Value::Null]).unwrap();
        let fresh = t.stats();
        assert_eq!(fresh.row_count, 5);
        assert_eq!(fresh.indexes[0].distinct_keys, 5);
        assert!(!Arc::ptr_eq(&warm, &fresh));
        assert_eq!(snapshot.stats().row_count, 4);
        assert!(Arc::ptr_eq(&warm, &snapshot.stats()));
        // Deletes and updates invalidate too.
        t.delete_rows(vec![0]);
        assert_eq!(t.stats().row_count, 4);
        t.update_rows(&[], &[], &[]).unwrap();
        assert_eq!(t.stats().row_count, 4);
    }

    #[test]
    fn row_view_roundtrips_column_vectors() {
        // Deterministic LCG-driven property check: whatever mix of
        // Int/Text/NULL goes in through the row API must come back
        // identical through row(), value(), and the typed accessors.
        let mut t = Table::new(TableSchema {
            name: "rt".into(),
            columns: vec![
                ColumnDef {
                    name: "id".into(),
                    data_type: DataType::Int,
                    not_null: true,
                },
                ColumnDef {
                    name: "num".into(),
                    data_type: DataType::Int,
                    not_null: false,
                },
                ColumnDef {
                    name: "label".into(),
                    data_type: DataType::Text,
                    not_null: false,
                },
            ],
            primary_key: vec![0],
            foreign_keys: vec![],
        });
        let mut state = 0x243F_6A88_85A3_08D3_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut expected = Vec::new();
        for i in 0..300 {
            let num = match next() % 3 {
                0 => Value::Null,
                _ => Value::Int(next() as i64 - (1 << 30)),
            };
            let label = match next() % 3 {
                0 => Value::Null,
                _ => Value::Text(format!("s{}", next() % 17)),
            };
            let row = vec![Value::Int(i), num, label];
            t.insert(row.clone()).unwrap();
            expected.push(row);
        }
        for (id, row) in expected.iter().enumerate() {
            assert_eq!(&t.row(id), row, "row {id}");
            for (c, v) in row.iter().enumerate() {
                assert_eq!(&t.value(id, c), v, "cell {id},{c}");
                assert_eq!(t.columns()[c].is_valid(id), !v.is_null());
            }
        }
        let mut buf = Vec::new();
        t.read_row_into(7, &mut buf);
        assert_eq!(buf, expected[7]);
        // Typed accessors expose the payloads directly.
        assert!(t.columns()[0].ints().is_some());
        assert!(t.columns()[2].texts().is_some());
        assert!(t.columns()[2].ints().is_none());
    }

    #[test]
    fn packed_text_cells_round_trip_across_chunks() {
        let mut t = table();
        let texts = ["", "é", "中文 text", "plain"];
        let rows = BATCH + 7;
        for i in 0..rows {
            let name = match i % 5 {
                4 => Value::Null,
                k => Value::Text(texts[k].repeat(i % 3)),
            };
            t.insert(vec![Value::Int(i as i64), name]).unwrap();
        }
        for i in 0..rows {
            let want = match i % 5 {
                4 => Value::Null,
                k => Value::Text(texts[k].repeat(i % 3)),
            };
            assert_eq!(t.value(i, 1), want, "row {i}");
        }
        // The full first chunk gave back its spare capacity.
        let Column::Text(c) = &t.columns()[1] else {
            unreachable!("name is a text column");
        };
        assert!(c.0[0].cells.bytes.capacity() == c.0[0].cells.bytes.len());
    }

    #[test]
    fn validity_bitmap_tracks_nulls_across_word_boundaries() {
        let mut t = table();
        // 130 rows straddle three 64-bit validity words; NULL every
        // third name.
        for i in 0..130 {
            let name = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Text(format!("n{i}"))
            };
            t.insert(vec![Value::Int(i), name]).unwrap();
        }
        for i in 0..130usize {
            assert_eq!(t.columns()[1].is_valid(i), i % 3 != 0, "slot {i}");
        }
        // Compaction keeps validity aligned with the surviving rows.
        t.delete_rows((0..65).collect());
        assert_eq!(t.len(), 65);
        for i in 0..65usize {
            let orig = i as i64 + 65;
            assert_eq!(t.value(i, 0), Value::Int(orig));
            assert_eq!(t.columns()[1].is_valid(i), orig % 3 != 0, "slot {i}");
        }
    }
}
