/* C stubs for the batched UDP transport (Lbrm_run.Sockmsg).
 *
 * recvmmsg/sendmmsg drain and flush up to LBRM_BATCH_MAX datagrams per
 * syscall, scattering into / gathering from caller-provided offsets of
 * one shared backing region (the runtime's fixed slots), so the OCaml hot
 * path performs no per-datagram allocation: lengths and source ports
 * travel through preallocated int arrays written in place.
 *
 * The mmsg entry points are Linux-only; lbrm_has_mmsg reports whether
 * they were compiled in, and Sockmsg falls back to one-datagram-at-a-
 * time Unix.sendto/recvfrom when they were not (or when batching is
 * disabled for benchmarking).
 *
 * lbrm_send_gso is the top transmit tier: UDP generalized segmentation
 * offload (UDP_SEGMENT, Linux >= 4.18).  A run of equal-size datagrams
 * to one destination is handed to the kernel as a single super-buffer
 * with a per-call cmsg carrying the segment size; the kernel splits it
 * at the very bottom of the stack, so the whole run costs one syscall
 * AND one trip through the protocol layers.  On loopback this is worth
 * ~3-4x over per-skb sendmmsg.  Support is probed at runtime
 * (lbrm_probe_gso) because it depends on the running kernel, not the
 * build host.
 *
 * lbrm_monotonic_time is CLOCK_MONOTONIC (NTP-step immune), falling
 * back to gettimeofday where unavailable.
 */

#define _GNU_SOURCE

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <errno.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#if defined(__linux__)
#define LBRM_HAS_MMSG 1
#include <netinet/udp.h>
#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#endif

#define LBRM_BATCH_MAX 64

CAMLprim value lbrm_has_mmsg(value unit)
{
  (void)unit;
#ifdef LBRM_HAS_MMSG
  return Val_true;
#else
  return Val_false;
#endif
}

CAMLprim double lbrm_monotonic_time(value unit)
{
  (void)unit;
#ifdef CLOCK_MONOTONIC
  {
    struct timespec ts;
    if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
      return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
  }
#endif
  {
    struct timeval tv;
    gettimeofday(&tv, NULL);
    return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
  }
}

CAMLprim value lbrm_monotonic_time_byte(value unit)
{
  return caml_copy_double(lbrm_monotonic_time(unit));
}

/* recvmmsg fd region offs slot count lens ports -> n
 *
 * Receives up to [count] datagrams (<= LBRM_BATCH_MAX) in one syscall,
 * datagram i landing at region[offs[i] .. offs[i]+slot).  Writes the
 * stored length into lens[i] (-1 when the datagram was truncated to the
 * slot) and the IPv4 source port into ports[i].  Returns the number of
 * datagrams received, or -1 when the socket would block.  No OCaml
 * allocation on any path except the hard-error raise. */
CAMLprim value lbrm_recvmmsg(value vfd, value vbuf, value voffs, value vslot,
                             value vcount, value vlens, value vports)
{
#ifdef LBRM_HAS_MMSG
  struct mmsghdr msgs[LBRM_BATCH_MAX];
  struct iovec iov[LBRM_BATCH_MAX];
  struct sockaddr_in addrs[LBRM_BATCH_MAX];
  int fd = Int_val(vfd);
  long slot = Long_val(vslot);
  long count = Long_val(vcount);
  long i;
  int n;
  if (count < 0) count = 0;
  if (count > LBRM_BATCH_MAX) count = LBRM_BATCH_MAX;
  memset(msgs, 0, (size_t)count * sizeof(struct mmsghdr));
  for (i = 0; i < count; i++) {
    iov[i].iov_base = Bytes_val(vbuf) + Long_val(Field(voffs, i));
    iov[i].iov_len = (size_t)slot;
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(struct sockaddr_in);
  }
  n = recvmmsg(fd, msgs, (unsigned int)count, 0, NULL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_int(-1);
    caml_failwith("Sockmsg.recvmmsg");
  }
  for (i = 0; i < n; i++) {
    long len = (msgs[i].msg_hdr.msg_flags & MSG_TRUNC)
                   ? -1
                   : (long)msgs[i].msg_len;
    Field(vlens, i) = Val_long(len);
    Field(vports, i) = Val_long((long)ntohs(addrs[i].sin_port));
  }
  return Val_int(n);
#else
  (void)vfd; (void)vbuf; (void)voffs; (void)vslot;
  (void)vcount; (void)vlens; (void)vports;
  caml_failwith("Sockmsg.recvmmsg: sendmmsg/recvmmsg not compiled in");
#endif
}

CAMLprim value lbrm_recvmmsg_byte(value *argv, int argn)
{
  (void)argn;
  return lbrm_recvmmsg(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6]);
}

/* sendmmsg fd region offs lens ports start count ip -> n
 *
 * Sends messages start .. start+count-1 of the staged batch in one
 * syscall: message j is region[offs[j] .. offs[j]+lens[j]) addressed to
 * 127.x.x.x-style IPv4 [ip] (host byte order) at ports[j].  Returns how
 * many were handed to the kernel (possibly < count), or -1 when the
 * socket would block before any were sent. */
CAMLprim value lbrm_sendmmsg(value vfd, value vbuf, value voffs, value vlens,
                             value vports, value vstart, value vcount,
                             value vip)
{
#ifdef LBRM_HAS_MMSG
  struct mmsghdr msgs[LBRM_BATCH_MAX];
  struct iovec iov[LBRM_BATCH_MAX];
  struct sockaddr_in addrs[LBRM_BATCH_MAX];
  int fd = Int_val(vfd);
  long start = Long_val(vstart);
  long count = Long_val(vcount);
  uint32_t ip = (uint32_t)Long_val(vip);
  long i;
  int n;
  if (count < 0) count = 0;
  if (count > LBRM_BATCH_MAX) count = LBRM_BATCH_MAX;
  memset(msgs, 0, (size_t)count * sizeof(struct mmsghdr));
  memset(addrs, 0, (size_t)count * sizeof(struct sockaddr_in));
  for (i = 0; i < count; i++) {
    iov[i].iov_base = Bytes_val(vbuf) + Long_val(Field(voffs, start + i));
    iov[i].iov_len = (size_t)Long_val(Field(vlens, start + i));
    addrs[i].sin_family = AF_INET;
    addrs[i].sin_port = htons((uint16_t)Long_val(Field(vports, start + i)));
    addrs[i].sin_addr.s_addr = htonl(ip);
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(struct sockaddr_in);
  }
  n = sendmmsg(fd, msgs, (unsigned int)count, 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_int(-1);
    caml_failwith("Sockmsg.sendmmsg");
  }
  return Val_int(n);
#else
  (void)vfd; (void)vbuf; (void)voffs; (void)vlens;
  (void)vports; (void)vstart; (void)vcount; (void)vip;
  caml_failwith("Sockmsg.sendmmsg: sendmmsg/recvmmsg not compiled in");
#endif
}

CAMLprim value lbrm_sendmmsg_byte(value *argv, int argn)
{
  (void)argn;
  return lbrm_sendmmsg(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7]);
}

/* probe_gso: whether the running kernel accepts the UDP_SEGMENT socket
 * option.  GSO support is a property of the kernel the binary runs on
 * (>= 4.18), not the build host, so it has to be asked for at runtime.
 * Returns false anywhere sockets themselves are unavailable. */
CAMLprim value lbrm_probe_gso(value unit)
{
  (void)unit;
#ifdef LBRM_HAS_MMSG
  {
    int fd = socket(AF_INET, SOCK_DGRAM, 0);
    int seg = 1400;
    int ok;
    if (fd < 0) return Val_false;
    ok = setsockopt(fd, SOL_UDP, UDP_SEGMENT, &seg, sizeof seg) == 0;
    close(fd);
    return Val_bool(ok);
  }
#else
  return Val_false;
#endif
}

/* send_gso fd region offs lens start count seg ip port -> status
 *
 * Ships messages start .. start+count-1 — every segment [seg] bytes
 * long except possibly a shorter final one — to ip:port as ONE
 * UDP_SEGMENT super-datagram: the segments are gathered from their
 * (scattered) region offsets by the iovec array and split back into
 * [count] wire datagrams at the bottom of the kernel's stack.  Returns
 * 0 on success, -1 when the socket would block (caller waits and
 * retries: the GSO skb is atomic, nothing was queued), and -2 when the
 * kernel rejected the send (caller disables the GSO tier and falls
 * back to sendmmsg). */
CAMLprim value lbrm_send_gso(value vfd, value vbuf, value voffs, value vlens,
                             value vstart, value vcount, value vseg, value vip,
                             value vport)
{
#ifdef LBRM_HAS_MMSG
  struct iovec iov[LBRM_BATCH_MAX];
  struct sockaddr_in addr;
  struct msghdr mh;
  char ctrl[CMSG_SPACE(sizeof(uint16_t))];
  struct cmsghdr *cm;
  int fd = Int_val(vfd);
  long start = Long_val(vstart);
  long count = Long_val(vcount);
  long seg = Long_val(vseg);
  uint32_t ip = (uint32_t)Long_val(vip);
  long i;
  ssize_t sent;
  size_t total = 0;
  if (count < 1 || count > LBRM_BATCH_MAX) return Val_int(-2);
  for (i = 0; i < count; i++) {
    size_t len = (size_t)Long_val(Field(vlens, start + i));
    iov[i].iov_base = Bytes_val(vbuf) + Long_val(Field(voffs, start + i));
    iov[i].iov_len = len;
    total += len;
  }
  memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons((uint16_t)Long_val(vport));
  addr.sin_addr.s_addr = htonl(ip);
  memset(&mh, 0, sizeof mh);
  memset(ctrl, 0, sizeof ctrl);
  mh.msg_name = &addr;
  mh.msg_namelen = sizeof addr;
  mh.msg_iov = iov;
  mh.msg_iovlen = (size_t)count;
  mh.msg_control = ctrl;
  mh.msg_controllen = sizeof ctrl;
  cm = CMSG_FIRSTHDR(&mh);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
  memcpy(CMSG_DATA(cm), &(uint16_t){(uint16_t)seg}, sizeof(uint16_t));
  sent = sendmsg(fd, &mh, 0);
  if (sent == (ssize_t)total) return Val_int(0);
  if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return Val_int(-1);
  return Val_int(-2);
#else
  (void)vfd; (void)vbuf; (void)voffs; (void)vlens; (void)vstart;
  (void)vcount; (void)vseg; (void)vip; (void)vport;
  return Val_int(-2);
#endif
}

CAMLprim value lbrm_send_gso_byte(value *argv, int argn)
{
  (void)argn;
  return lbrm_send_gso(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7], argv[8]);
}
