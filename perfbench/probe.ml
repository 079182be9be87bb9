(** Process and host readings that are not the program's own: noise
    diagnostics (host steal, a calibration loop), peak memory, file
    sizes and the filesystem that holds the database files. *)

let now_ns = Blas_obs.Clock.now_ns

let ms_of_ns ns = ns /. 1e6

let s_of_ns ns = ns /. 1e9

(** [timed f] — [f ()] and its wall time in nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (Blas_obs.Clock.elapsed_ns t0))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(** Aggregate CPU jiffies from /proc/stat: (steal, total). *)
let cpu_jiffies () =
  match List.find_opt (String.starts_with ~prefix:"cpu ") (read_lines "/proc/stat") with
  | None -> (0, 0)
  | Some line ->
    let fields = List.tl (words line) |> List.map int_of_string in
    let total = List.fold_left ( + ) 0 fields in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, total)

(** Host steal over a window, in percent of all CPU time. *)
let steal_pct (s0, t0) (s1, t1) =
  if t1 <= t0 then 0. else 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(** A fixed integer loop that touches nothing of the program: its time
    moves only with the host (frequency, steal, co-tenants). *)
let calibration_ms () =
  let x = ref 1 in
  let (), ns =
    timed (fun () ->
        for i = 1 to 20_000_000 do
          x := (!x * 1103515245) + 12345 + i
        done)
  in
  ignore (Sys.opaque_identity !x);
  ms_of_ns ns

(** Peak resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  match
    List.find_opt (String.starts_with ~prefix:"VmHWM:") (read_lines "/proc/self/status")
  with
  | Some line -> (
    match words line with
    | [ _; kb; _ ] -> float_of_string kb /. 1024.
    | _ -> 0.)
  | None -> 0.

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(** A database file's bytes plus its WAL's. *)
let db_bytes path = file_size path + file_size (path ^ ".wal")

(** The mount that holds [dir]: "<fstype> on <mountpoint>". *)
let filesystem_of dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let best =
    List.fold_left
      (fun best line ->
        match words line with
        | _ :: mnt :: fstype :: _
          when String.starts_with ~prefix:mnt dir
               && (match best with Some (m, _) -> String.length mnt > String.length m | None -> true)
          -> Some (mnt, fstype)
        | _ -> best)
      None (read_lines "/proc/self/mounts")
  in
  match best with Some (m, f) -> Printf.sprintf "%s on %s" f m | None -> "unknown"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ()

(** [percentile xs p] — nearest-rank percentile of an unsorted array,
    or [None] when fewer than 10 samples lie beyond it. *)
let percentile xs p =
  let n = Array.length xs in
  (* The rank of the percentile among the sorted samples; the epsilon
     keeps, say, p90 of 100 samples at rank 90 despite float rounding. *)
  let rank = max 1 (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))) in
  if n = 0 || n - rank < 10 then None
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    Some s.(min (n - 1) (rank - 1))
  end

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
